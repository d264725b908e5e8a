"""Command-line interface: exit codes, determinism, report content."""

import hashlib
import importlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus import cli
from ellgenus.cyclo import Cyclo
from ellgenus.errors import SIZE_BOUND, SpanFailure
from ellgenus.genus import cp_chern, genus, genus_bivariate, split_product


@pytest.fixture()
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps({"dim": 2, "chern": {"1,1": 9, "2": 3}}))
    return str(path)


@pytest.fixture()
def cp4_file(tmp_path):
    path = tmp_path / "cp4.json"
    path.write_text(json.dumps({"dim": 4, "chern": {
        "4": 5, "3,1": 50, "2,2": 100, "2,1,1": 250, "1,1,1,1": 625,
    }}))
    return str(path)


@pytest.fixture()
def cp5_file(tmp_path):
    chern = {",".join(map(str, part)): v for part, v in cp_chern(5).numbers.items()}
    path = tmp_path / "cp5.json"
    path.write_text(json.dumps({"dim": 5, "chern": chern}))
    return str(path)


@pytest.fixture()
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(
        json.dumps({"dim0": 1, "dim1": 2, "chern": {"1|2": 6, "1|1,1": 18}})
    )
    return str(path)


@pytest.fixture()
def split22_file(tmp_path):
    path = tmp_path / "split22.json"
    path.write_text(json.dumps({"dim0": 2, "dim1": 2, "chern": {
        "2|2": 9, "1,1|2": 27, "2|1,1": 27, "1,1|1,1": 81,
    }}))
    return str(path)


@pytest.fixture()
def series_file(tmp_path):
    g = genus(cp_chern(2), 5, 7)
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"level": 5, "coeffs": g.serialize()}))
    return str(path)


@pytest.fixture()
def rect_file(tmp_path):
    F = genus_bivariate(split_product(cp_chern(1), cp_chern(1)), 5, 5, 5)
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"level": 5, "rows": F.serialize()}))
    return str(path)


def _lifted_cp2(bump, at=1):
    # genus(CP^2, 5, 7) at level 20, the ambient level of the degree-6 basis,
    # so the reduction runs in Q(zeta_20); bump is added at q^at
    g = genus(cp_chern(2), 5, 7).lift(20)
    coeffs = list(g.coeffs)
    coeffs[at] = coeffs[at] + bump
    return {"level": 20, "coeffs": [c.serialize() for c in coeffs]}


@pytest.fixture()
def series20_file(tmp_path):
    path = tmp_path / "series20.json"
    path.write_text(json.dumps(_lifted_cp2(Cyclo(20))))
    return str(path)


@pytest.fixture()
def bumped20_file(tmp_path):
    path = tmp_path / "bumped20.json"
    path.write_text(json.dumps(_lifted_cp2(Cyclo.zeta(5).lift(20) * Fraction(1, 3))))
    return str(path)


@pytest.fixture()
def constant20_file(tmp_path):
    # a constant off Q(zeta_5): the class stays trivial, and the report
    # records the constant's part off Q(zeta_5)
    path = tmp_path / "constant20.json"
    path.write_text(json.dumps(_lifted_cp2(Cyclo.zeta(20) + Fraction(1, 3), at=0)))
    return str(path)


@pytest.fixture()
def bumped_rect_file(tmp_path):
    F = genus_bivariate(split_product(cp_chern(1), cp_chern(1)), 5, 5, 5)
    rows = F.serialize()
    rows[1][2] = (F[1, 2] + Fraction(1, 3)).serialize()
    path = tmp_path / "bumped_rect.json"
    path.write_text(json.dumps({"level": 5, "rows": rows}))
    return str(path)


def test_genus_command_reports_integrality(cp2_file, capsys):
    code = cli.main(["--level", "5", "--prec-q", "6", "genus", cp2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "all coefficients integral: True" in out
    assert "modular of weight 2: True" in out


def test_genus_machine_output_is_deterministic_json(cp2_file, capsys):
    argv = ["--level", "5", "--prec-q", "6", "--machine", "genus", cp2_file]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_integral"] is True and doc["modular"] is True
    assert doc["coeffs"][0] == ["-1/5", "0/1", "3/5", "3/5"]


def test_point_genus_is_constant_one(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 0, "chern": {"": 1}}))
    assert cli.main(["--machine", "genus", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coeffs"][0] == ["1/1", "0/1", "0/1", "0/1"]
    assert all(c == ["0/1"] * 4 for c in doc["coeffs"][1:])


def test_malformed_partition_key_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "chern": {"1,2": 9}}))
    assert cli.main(["genus", str(path)]) == 3


@pytest.mark.parametrize("command,doc", [
    ("genus", {"dim": 11, "chern": {"1_1": 1}}),
    ("genus", {"dim": 2, "chern": {" 2": 3, "1,1": 9}}),
    ("genus", {"dim": 3, "chern": {"\u0663": 4}}),
    ("f-rep", {"dim0": 1, "dim1": 1, "chern": {" 1|1": 4}}),
], ids=["underscore", "space", "arabic-indic", "split-space"])
def test_a_partition_part_that_is_not_an_exact_integer_exits_3(command, doc, tmp_path, capsys):
    # int would read "1_1" as the partition (11,), " 2" as (2,) and "\u0663" as (3,)
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--machine", command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "is not an exact number" in captured.err


def test_missing_file_exits_3(capsys):
    assert cli.main(["genus", "/nonexistent/m.json"]) == 3


def test_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["genus", str(path)]) == 3


def test_reduce_u_trivial_verdict(series_file, capsys):
    code = cli.main(["--level", "5", "--degree", "6", "reduce-u", series_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "trivial: True" in out


def test_reduce_u_below_sturm_exits_4(series_file, capsys):
    code = cli.main(
        ["--level", "5", "--degree", "6", "--prec-q", "3", "reduce-u", series_file]
    )
    assert code == 4


def test_reduce_u_requires_degree(series_file, capsys):
    assert cli.main(["--level", "5", "reduce-u", series_file]) == 3


def test_reduce_w_trivial_verdict(rect_file, capsys):
    code = cli.main(["--level", "5", "--degree", "4", "reduce-w", rect_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "trivial: True" in out


def test_frep_reports_integral_rectangle(split_file, capsys):
    code = cli.main(
        ["--level", "5", "--prec-p", "7", "--prec-q", "7", "--machine",
         "f-rep", split_file]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["all_integral"] is True
    assert doc["prec_p"] == 7 and doc["prec_q"] == 7


def test_basis_dump(capsys):
    code = cli.main(["--level", "5", "--degree", "4", "--machine", "basis"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["elements"]) == 3
    assert doc["certificate"]["rank"] == 3


def test_span_failure_exits_2(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SpanFailure(1, 3)

    monkeypatch.setattr(cli, "weight_basis", broken)
    assert cli.main(["--level", "5", "--degree", "4", "basis"]) == 2


def test_rank_above_the_dimension_exits_2(monkeypatch, capsys):
    from ellgenus import modforms

    real = modforms.dim_Mk
    monkeypatch.setattr(modforms, "dim_Mk", lambda N, k: real(N, k) - 1)
    # a fresh basis cache, so bases cached by other tests are rebuilt
    monkeypatch.setattr(modforms, "_chains", {})
    code = cli.main(["--level", "5", "--degree", "4", "basis"])
    assert code == 2
    assert "exceeds dimension" in capsys.readouterr().err


def test_genus_at_unsupported_level_fails_before_the_genus(cp2_file, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("genus must not run at an unsupported level")

    # cli imports genus when the command runs, so the layer's own binding is patched
    monkeypatch.setattr(importlib.import_module("ellgenus.genus"), "genus", never)
    assert cli.main(["--level", "11", "genus", cp2_file]) == 3
    assert "genus-0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (["genus"], '{"dim": 2, "chern": {"1,1": 9, "1,1": 3, "2": 3}}'),
    (["genus"], '{"dim": 2, "chern": {"1,1": 9, "2/2,1": 3, "2": 3}}'),
    (["f-rep"], '{"dim0": 2, "dim1": 0, "chern": {"2": 3, "2|": 3, "1,1": 9}}'),
    (["--degree", "6", "reduce-u"],
     '{"level": 7, "level": 5, "coeffs": ' + json.dumps([["0/1"] * 4] * 7) + "}"),
], ids=["repeated-key", "one-partition", "one-split-pair", "repeated-level"])
def test_a_key_read_twice_exits_3(argv, text, tmp_path, capsys):
    # json.load kept the last copy and the Chern data added the values, so
    # each of these was read as some other input and exited 0
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert cli.main(["--level", "5"] + argv + [str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and ("repeated" in captured.err or "two keys" in captured.err)


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_an_out_path_that_cannot_be_written_exits_3(where, tmp_path, capsys):
    out = tmp_path / "missing" / "x" if where == "missing-parent" else tmp_path
    code = cli.main(["--level", "5", "--degree", "4", "--out", str(out), "basis"])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_an_out_path_that_cannot_be_written_fails_before_the_command(
    where, tmp_path, monkeypatch, capsys
):
    # the basis was built and certified before the path was tried
    def never(*args, **kwargs):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(cli, "weight_basis", never)
    out = tmp_path / "missing" / "x" if where == "missing-parent" else tmp_path
    code = cli.main(["--level", "5", "--degree", "4", "--out", str(out), "basis"])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


def test_an_existing_out_file_is_kept_when_the_command_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n" * 1000)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["--out", str(out), "genus", str(bad)]) == 3
    assert out.read_text() == "earlier report\n" * 1000
    assert cli.main(["--machine", "--out", str(out), "--degree", "4", "basis"]) == 0
    assert json.loads(out.read_text())["command"] == "basis"


def test_a_point_needs_no_basis_at_any_level(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a weight-0 genus built a basis")

    monkeypatch.setattr(cli, "weight_basis", never)
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 0, "chern": {"": 1}}))
    assert cli.main(["--level", "11", "--machine", "genus", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["modular"] is True and doc["all_integral"] is True


def test_out_flag_writes_report_file(cp2_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["--machine", "--prec-q", "6", "--out", str(out), "genus", cp2_file]
    )
    assert code == 0
    assert json.loads(out.read_text())["command"] == "genus"
    assert capsys.readouterr().out == ""


def test_level_below_4_is_rejected():
    assert cli.main(["--level", "3", "--degree", "4", "basis"]) == 3


def test_a_large_unsupported_level_is_refused(capsys):
    # the index, the cusp count and the exponent of (Z/N)^* looped over every
    # residue or divisor of N, so this refusal took seconds
    assert cli.main(["--level", "10000019", "--degree", "4", "basis"]) == 3
    assert "genus-0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["--level", "abc", "basis"],
    ["basis", "--bogus"],
    ["--level", "1_2", "--degree", "2", "--machine", "basis"],
    ["--prec-q", " 8", "--degree", "4", "basis"],
    ["--degree", "\u0664", "basis"],
    ["--prec-p", "1.5", "--degree", "4", "basis"],
], ids=["no-command", "word-level", "unknown-option", "underscore-level", "space-prec",
        "arabic-indic-degree", "decimal-prec"])
def test_usage_errors_exit_3(argv, capsys):
    # argparse's own code 2 means a span certification failure here, and int
    # would read "1_2" as level 12
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert capsys.readouterr().out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--level" in capsys.readouterr().out


def test_selfcheck_command_passes(capsys):
    code = cli.main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out


def test_reduce_w_rejects_ragged_rows_exits_3(tmp_path, capsys):
    # the 1/3 cell lies past the first row's width; it must not be dropped
    zero = ["0/1"] * 4
    rows = [[zero, zero], [zero, zero, ["1/3", "0/1", "0/1", "0/1"]]]
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"level": 5, "rows": rows}))
    code = cli.main(["--level", "5", "--degree", "4", "reduce-w", str(path)])
    assert code == 3
    assert "trivial" not in capsys.readouterr().out


# sha256 of the --machine reports on the fixtures above: the first three
# were recorded with the field elimination that the integer kernel
# replaced, the degree-4 and degree-5 ones with the power-series
# exponential that the recurrence replaced, the level-20 and bumped ones
# with the reduction that formed every residual coefficient, pivots
# included (the unbumped level-20 input has the class, and so the report,
# of the level-5 one); the basis reports, which read no input file, with
# the basis that stored its elements beside its integer matrix; none of
# them may change
GOLDEN = {
    "genus": ("2a44f1cf5c35877d237114e73a5148e8ff5d167f562901a4e45a80b829810baa",
              "cp2_file", ["--level", "5", "--prec-q", "6", "--machine", "genus"]),
    "genus-cp4": ("c542f528250b93c0b9fe2a48a969034b8b23bd763c3779aed9ff7de3fafd96a1",
                  "cp4_file", ["--level", "7", "--prec-q", "30", "--machine", "genus"]),
    "genus-cp5": ("1972e174ad3e333c6ff75aeff754902221c7a0abe511bf8d597272e7d5a0d890",
                  "cp5_file", ["--level", "5", "--prec-q", "30", "--machine", "genus"]),
    "f-rep-2-2": ("c30715f020cecc7fa2c6ae7e0620ac69c8e32e24774c6e4d0dca76ec2a0d9ee2",
                  "split22_file",
                  ["--level", "7", "--prec-p", "12", "--prec-q", "12", "--machine", "f-rep"]),
    "reduce-u": ("b45d814eb356398510a9852f4b8960d8c24edb08e2d840f459f102952fc1ffa9",
                 "series_file", ["--level", "5", "--degree", "6", "--machine", "reduce-u"]),
    "reduce-w": ("f80ddab94340368842fed41cfaaae805b9ea5e5a6ccedc19a1dd7afd5dff7f0a",
                 "rect_file", ["--level", "5", "--degree", "4", "--machine", "reduce-w"]),
    "reduce-u-20": ("b45d814eb356398510a9852f4b8960d8c24edb08e2d840f459f102952fc1ffa9",
                    "series20_file", ["--level", "5", "--degree", "6", "--machine", "reduce-u"]),
    "reduce-u-20-bumped": ("dfe3e1ce2a6d4d85d2302a0faf2f98a46396accf6059974aa1549faf367ef3d0",
                           "bumped20_file",
                           ["--level", "5", "--degree", "6", "--machine", "reduce-u"]),
    "reduce-u-20-constant": ("e81c5f0150ff37126f062a737a3fa78bf1b6f157ce3c47afc638ba27dacfd069",
                             "constant20_file",
                             ["--level", "5", "--degree", "6", "--machine", "reduce-u"]),
    "reduce-w-bumped": ("f443ecf90882a28ff1cf7d836e7ed1f27d9452c6e00e9e46c75ed295f9602ce4",
                        "bumped_rect_file",
                        ["--level", "5", "--degree", "4", "--machine", "reduce-w"]),
    "basis-12-6": ("104c302fa521e6a184599338d7d2435ba1df7bb135d9454160b47115dc34499f",
                   None, ["--level", "12", "--degree", "6", "--machine", "basis"]),
    "basis-7-8": ("5da983b4e32d9746eabd6c55c5cd95f2b9d24114748719891937b5d596b8ce9a",
                  None, ["--level", "7", "--degree", "8", "--machine", "basis"]),
    "basis-5-4-human": ("e88fa13c9e24eed0ca07d912a4660e9c4be4dfa363f6d9c8d4c7d8f98c89a28d",
                        None, ["--level", "5", "--degree", "4", "basis"]),
    "basis-9-2-human": ("deabf598f3cc08f4682a0b64758bb13ad8267151f72631e6b5a20466933555a4",
                        None, ["--level", "9", "--degree", "2", "--prec-q", "20", "basis"]),
    # (Z/8)^* = C_2 x C_2 is not cyclic
    "basis-8-6": ("a2417f018e118991ff6d44c3c7d86c1988ba96e298d827ee344b5848fbe48042",
                  None, ["--level", "8", "--degree", "6", "--machine", "basis"]),
    "basis-10-4": ("f4fa6b0232de6ccb0bac9a3068ca30f4191dc9dfab541c72f9467509b0a443e3",
                   None, ["--level", "10", "--degree", "4", "--machine", "basis"]),
    "selfcheck": ("108229a59cd4b202bc0517408b473600fc25dcb6f7e891d2451684db7fb849a7",
                  None, ["--machine", "selfcheck"]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_machine_reports_match_the_recorded_digests(case, request, capsys):
    digest, fixture, options = GOLDEN[case]
    files = [] if fixture is None else [request.getfixturevalue(fixture)]
    assert cli.main(options + files) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", ["reduce-u-20", "reduce-u-20-bumped", "reduce-w-bumped",
                                  "reduce-u-20-constant"])
def test_the_new_reports_have_their_expected_verdicts(case, request, capsys):
    _, fixture, options = GOLDEN[case]
    assert cli.main(options + [request.getfixturevalue(fixture)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivial"] is ("bumped" not in case)
    if case == "reduce-u-20-constant":
        want = Cyclo.zeta(20) + Fraction(1, 3)
        assert report["modular_part"]["constant"] == want.serialize()


def _q_file(tmp_path, value):
    # q^0 .. q^6 at level 5 (the Sturm floor for degree 6), value at q^5
    coeffs = [["0/1"] * 4 for _ in range(7)]
    coeffs[5] = [value, "0/1", "0/1", "0/1"]
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"level": 5, "coeffs": coeffs}))
    return str(path)


def test_reduce_u_rejects_a_float_coefficient_exits_3(tmp_path, capsys):
    argv = ["--level", "5", "--degree", "6", "reduce-u"]
    assert cli.main(argv + [_q_file(tmp_path, "1/5")]) == 0
    assert "trivial: True" in capsys.readouterr().out
    # the float 0.2 is not 1/5, so it must not be read as some nearby rational
    assert cli.main(argv + [_q_file(tmp_path, 0.2)]) == 3
    assert "not an exact number" in capsys.readouterr().err


def test_reduce_w_rejects_a_boolean_coefficient_exits_3(tmp_path, capsys):
    zero = ["0/1"] * 4
    rows = [[zero] * 3 for _ in range(3)]
    rows[1][1] = [True, "0/1", "0/1", "0/1"]
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"level": 5, "rows": rows}))
    assert cli.main(["--level", "5", "--degree", "4", "reduce-w", str(path)]) == 3
    assert "not an exact number" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"dim": 2, "chern": {"1,1": 9.7, "2": 3}},
    {"dim": 2, "chern": {"1,1": "97/10", "2": 3}},
    {"dim": 2.0, "chern": {"1,1": 9, "2": 3}},
    {"dim": True, "chern": {"1,1": 9, "2": 3}},
], ids=["float", "fraction", "float-dim", "bool-dim"])
def test_genus_rejects_inexact_or_non_integral_chern_data_exits_3(doc, tmp_path, capsys):
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--level", "5", "genus", str(path)]) == 3
    assert "modular" not in capsys.readouterr().out


def test_genus_reads_an_integral_num_den_chern_number(cp2_file, tmp_path, capsys):
    path = tmp_path / "cp2-fraction.json"
    path.write_text(json.dumps({"dim": 2, "chern": {"1,1": "18/2", "2": "3"}}))
    assert cli.main(["--machine", "genus", str(path)]) == 0
    fraction = capsys.readouterr().out
    assert cli.main(["--machine", "genus", cp2_file]) == 0
    assert capsys.readouterr().out == fraction


def test_frep_rejects_a_float_chern_number_exits_3(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"dim0": 1, "dim1": 2, "chern": {"1|2": 6.5, "1|1,1": 18}}))
    assert cli.main(["f-rep", str(path)]) == 3


# Fraction reads a decimal exponent: these nine bytes would make a
# 13-million-bit integer before any check ran
HUGE = "1e4000000"


def test_reduce_u_rejects_an_exponent_coefficient_exits_3(tmp_path, capsys):
    argv = ["--level", "5", "--degree", "6", "reduce-u", _q_file(tmp_path, HUGE)]
    assert cli.main(argv) == 3
    assert "not an exact number" in capsys.readouterr().err


def test_genus_rejects_an_exponent_chern_number_exits_3(tmp_path, capsys):
    path = tmp_path / "chern.json"
    path.write_text(json.dumps({"dim": 2, "chern": {"1,1": HUGE, "2": 3}}))
    assert cli.main(["--level", "5", "genus", str(path)]) == 3
    assert "modular" not in capsys.readouterr().out


@pytest.mark.parametrize("level", [0, -5])
def test_reduce_commands_refuse_a_series_level_below_1_exits_3(level, tmp_path, capsys):
    u = tmp_path / "u.json"
    u.write_text(json.dumps({"level": level, "coeffs": [[]] * 8}))
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"level": level, "rows": [[[]]]}))
    assert cli.main(["--degree", "6", "reduce-u", str(u)]) == 3
    assert cli.main(["--degree", "4", "reduce-w", str(w)]) == 3
    assert capsys.readouterr().err.count(f"level {level} is not positive") == 2


@pytest.mark.parametrize("argv,doc", [
    (["--degree", "6", "reduce-u"], {"level": 10**12 + 39, "coeffs": [["1"], ["1/3"], ["0"]]}),
    (["--degree", "4", "reduce-w"], {"level": 10**12 + 39, "rows": [[["1"]]]}),
], ids=["reduce-u", "reduce-w"])
def test_a_series_level_the_command_cannot_reduce_exits_3(argv, doc, tmp_path, capsys):
    # both built phi(level) coordinates per coefficient before the level was
    # checked, and died of a MemoryError with exit 1
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--level", "5"] + argv + [str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"series level {doc['level']} does not divide" in err


@pytest.mark.parametrize("command,doc", [
    ("f-rep", {"dim0": -1, "dim1": 3, "chern": {"|2": 5}}),
    ("genus", {"dim": -1, "chern": {}}),
])
def test_negative_dimensions_exit_3(command, doc, tmp_path, capsys):
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--machine", command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


SRC = pathlib.Path(cli.__file__).resolve().parent.parent
# the address space of each child: a build that outgrows it dies of a MemoryError
CHILD_MEMORY = 1 << 30
# runs the CLI on its arguments and ends stderr with the seconds that main took
TIMED_MAIN = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "from ellgenus.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(f'seconds {time.perf_counter() - start}', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


# a prime level: trial division would take 10^10 steps
HUGE_LEVEL = "100000000000000000039"


def _run_cli(argv, timeout=60):
    """(exit code, stderr, seconds of main or None) of ellgenus argv, run in a
    fresh interpreter whose address space is CHILD_MEMORY."""
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=timeout, preexec_fn=_limit_memory,
    )
    last = proc.stderr.rstrip().rpartition("\n")[2]
    seconds = float(last.split()[1]) if last.startswith("seconds ") else None
    return proc.returncode, proc.stderr, seconds


@pytest.mark.parametrize("options,doc", [
    (["--level", "5", "--degree", "500", "basis"], None),
    (["--level", "5", "--degree", "2000", "basis"], None),
    (["--level", "5", "--prec-q", "100000000", "--degree", "4", "basis"], None),
    (["--level", "1000000000039", "genus"], {"dim": 0, "chern": {"": 1}}),
    (["--level", "1000000000039", "f-rep"], {"dim0": 0, "dim1": 0, "chern": {"|": 1}}),
    (["--level", "5", "genus"], {"dim": 60, "chern": {"60": 1}}),
    (["--level", HUGE_LEVEL, "--degree", "4", "basis"], None),
    (["--level", HUGE_LEVEL, "genus"], {"dim": 0, "chern": {"": 1}}),
    (["--level", HUGE_LEVEL, "f-rep"], {"dim0": 0, "dim1": 0, "chern": {"|": 1}}),
    (["--level", HUGE_LEVEL, "--degree", "4", "reduce-u"], {"level": 1, "coeffs": [["1/1"]]}),
    (["--level", HUGE_LEVEL, "--degree", "4", "reduce-w"], {"level": 1, "rows": [[["1/1"]]]}),
], ids=["degree-500", "degree-2000", "prec-1e8", "genus-point", "f-rep-point", "genus-dim-60",
        "level-1e20-basis", "level-1e20-genus-point", "level-1e20-f-rep-point",
        "level-1e20-reduce-u", "level-1e20-reduce-w"])
def test_a_command_above_the_size_bound_exits_3_at_once(options, doc, tmp_path):
    # the basis chains died of a RecursionError or a MemoryError, and the point
    # genera of a MemoryError, all with exit 1; the dimension-60 genus ran on;
    # every command at a 20-digit prime level ran 10^10 steps of trial division
    argv = list(options)
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv.append(str(path))
    code, err, seconds = _run_cli(argv)
    assert code == 3 and "Traceback" not in err, err
    assert f"above the size bound {SIZE_BOUND}" in err
    assert seconds < 1


# every argv drawn from the small ranges finishes; one drawn from a huge range
# is refused by a dimension, the size bound or the Sturm floor
def _small_or_huge(small, huge):
    return st.one_of(st.integers(*small), st.integers(*huge))


LEVELS = _small_or_huge((4, 13), (10**9, 10**21))
DEGREES = _small_or_huge((2, 12), (10**4, 10**6))
PRECISIONS = _small_or_huge((1, 40), (10**8, 10**9))
DIMENSIONS = _small_or_huge((0, 4), (200, 1000))
NUMBERS = st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(1, 9))


@st.composite
def _partition_keys(draw, n):
    """A partition of n in the file form: one part, or n parts 1."""
    return draw(st.sampled_from([str(n) if n else "", ",".join(["1"] * n)]))


@st.composite
def _invocations(draw):
    """(argv before the input file, the input document or None)."""
    command = draw(st.sampled_from(["genus", "f-rep", "reduce-u", "reduce-w", "basis"]))
    argv = [
        "--level", str(draw(LEVELS)), "--degree", str(draw(DEGREES)),
        "--prec-q", str(draw(PRECISIONS)), "--prec-p", str(draw(PRECISIONS)), command,
    ]
    if command == "genus":
        n = draw(DIMENSIONS)
        doc = {"dim": n, "chern": {draw(_partition_keys(n)): 1}}
    elif command == "f-rep":
        a, b = draw(DIMENSIONS), draw(DIMENSIONS)
        doc = {"dim0": a, "dim1": b, "chern": {
            f"{draw(_partition_keys(a))}|{draw(_partition_keys(b))}": 1}}
    elif command == "reduce-u":
        doc = {"level": 1, "coeffs": [[x] for x in draw(st.lists(NUMBERS, min_size=1, max_size=40))]}
    elif command == "reduce-w":
        p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        doc = {"level": 1, "rows": [[[draw(NUMBERS)] for _ in range(q)] for _ in range(p)]}
    else:
        doc = None
    return argv, doc


@settings(max_examples=20)
@given(_invocations())
def test_every_argv_ends_with_a_documented_exit(invocation):
    # a crash exits 1, the self-check code, with a traceback; MemoryError and
    # RecursionError are not caught in main, so only bounds keep them out
    argv, doc = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = pathlib.Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            argv = argv + [str(path)]
        code, err, _ = _run_cli(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, err[-2000:])
