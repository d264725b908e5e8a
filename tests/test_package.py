"""The package namespace loads each layer on first use.

Every check runs in a fresh interpreter, since what a test process has
already imported would hide what a first read loads.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ellgenus

SRC = pathlib.Path(ellgenus.__file__).resolve().parent.parent


def _run(code: str) -> str:
    """Run code in a fresh interpreter that imports ellgenus from SRC; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_layer():
    out = _run("import sys, ellgenus; print(sorted(m for m in sys.modules if m.startswith('ellgenus')))")
    assert out.split() == ["['ellgenus']"]


def test_every_public_name_is_the_object_its_layer_defines():
    out = _run(
        "import sys, ellgenus\n"
        "assert len(set(ellgenus.__all__)) == len(ellgenus.__all__), 'a name under two layers'\n"
        "for name in ellgenus.__all__:\n"
        "    obj = getattr(ellgenus, name)\n"
        "    home = obj.__module__\n"
        "    assert home.startswith('ellgenus.'), (name, home)\n"
        "    assert getattr(sys.modules[home], name) is obj, name\n"
        "print(len(ellgenus.__all__), ellgenus.__version__)\n"
    )
    assert out.split() == [str(len(ellgenus.__all__)), ellgenus.__version__]


@pytest.mark.parametrize("first", [
    "import ellgenus.genus",
    "from ellgenus.genus import _mclass",
    "from ellgenus import *",
    "from ellgenus.cli import main; assert main(['--level', '5', 'genus', CP2]) == 0",
], ids=["import-layer", "from-layer", "star", "cli-genus"])
def test_the_genus_attribute_is_the_function_however_its_layer_loaded(first, tmp_path):
    cp2 = tmp_path / "cp2.json"
    cp2.write_text(json.dumps({"dim": 2, "chern": {"1,1": 9, "2": 3}}))
    out = _run(
        f"CP2 = {str(cp2)!r}\n"
        f"{first}\n"
        "import sys, types, ellgenus\n"
        "layer = sys.modules['ellgenus.genus']\n"
        "assert isinstance(layer, types.ModuleType)\n"
        "assert ellgenus.genus is layer.genus and callable(ellgenus.genus)\n"
        "from ellgenus import genus\n"
        "assert genus is layer.genus\n"
        "print('function')\n"
    )
    assert out.split()[-1] == "function"


def test_a_layer_attribute_is_the_submodule():
    out = _run(
        "import sys, ellgenus\n"
        "for layer in ('integers', 'cyclo', 'errors', 'linalg', 'series', 'modforms', 'reduce',\n"
        "              'selfcheck'):\n"
        "    assert getattr(ellgenus, layer) is sys.modules['ellgenus.' + layer], layer\n"
        "from ellgenus import reduce, selfcheck\n"
        "assert reduce.reduce_Uq is ellgenus.reduce_Uq\n"
        "assert selfcheck.run_checks is ellgenus.run_checks\n"
        "print('ok')\n"
    )
    assert out.split() == ["ok"]


def test_a_star_import_binds_every_public_name():
    out = _run(
        "import ellgenus\n"
        "namespace = {}\n"
        "exec('from ellgenus import *', namespace)\n"
        "assert all(namespace[name] is getattr(ellgenus, name) for name in ellgenus.__all__)\n"
        "assert set(ellgenus.__all__) <= set(dir(ellgenus))\n"
        "print(len(set(namespace) & set(ellgenus.__all__)))\n"
    )
    assert out.split() == [str(len(ellgenus.__all__))]


def test_an_unknown_name_raises_attribute_error():
    out = _run(
        "import ellgenus\n"
        "try:\n"
        "    ellgenus.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__)\n"
        "try:\n"
        "    from ellgenus import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert out.split() == ["AttributeError", "ImportError"]


def test_a_basis_job_loads_neither_genus_nor_reduce_nor_selfcheck():
    out = _run(
        "import contextlib, io, sys\n"
        "from ellgenus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--level', '12', '--degree', '8', '--machine', 'basis'])\n"
        "assert code == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ellgenus'))))\n"
        "print(' '.join(m for m in ('cmath', 'decimal', 'fractions', 'hashlib') if m in sys.modules))\n"
    )
    # a basis is an integer object: neither the field nor the series layer loads
    packages, stdlib = out.split("\n")[:2]
    assert packages.split() == [
        "ellgenus", "ellgenus.cli", "ellgenus.errors", "ellgenus.integers",
        "ellgenus.linalg", "ellgenus.modforms",
    ]
    assert stdlib == ""


@pytest.mark.parametrize("command, degree, document", [
    ("reduce-u", "6", {"level": 5, "coeffs": [["1/3", "0/1", "1/5", "0/1"]] * 7}),
    ("reduce-w", "4", {"level": 5, "rows": [[["1/3", "0/1", "1/5", "0/1"]] * 5] * 5}),
], ids=["reduce-u", "reduce-w"])
def test_a_reduction_job_loads_neither_genus_nor_selfcheck(command, degree, document, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    out = _run(
        "import contextlib, io, sys\n"
        "from ellgenus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['--level', '5', '--degree', {degree!r}, '--machine', {command!r},\n"
        f"                     {str(path)!r}])\n"
        "assert code == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ellgenus'))))\n"
    )
    # a reduction reads a basis and the field and series layers, never the genus
    assert out.split() == [
        "ellgenus", "ellgenus.cli", "ellgenus.cyclo", "ellgenus.errors", "ellgenus.integers",
        "ellgenus.linalg", "ellgenus.modforms", "ellgenus.reduce", "ellgenus.series",
    ]


@pytest.mark.parametrize("command, document", [
    ("genus", {"dim": 2, "chern": {"1,1": 9, "2": 3}}),
    ("f-rep", {"dim0": 1, "dim1": 1, "chern": {"1|1": 4}}),
], ids=["genus", "f-rep"])
def test_a_genus_job_loads_neither_reduce_nor_selfcheck(command, document, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    out = _run(
        "import contextlib, io, sys\n"
        "from ellgenus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['--level', '5', '--machine', {command!r}, {str(path)!r}])\n"
        "assert code == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ellgenus'))))\n"
    )
    # a genus reads the field, the series and, for its span test, a basis
    assert out.split() == [
        "ellgenus", "ellgenus.cli", "ellgenus.cyclo", "ellgenus.errors", "ellgenus.genus",
        "ellgenus.integers", "ellgenus.linalg", "ellgenus.modforms", "ellgenus.series",
    ]
