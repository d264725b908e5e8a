"""Command-line interface: exit codes, determinism, report content."""

import functools
import json

import pytest

from ellgenus import cli
from ellgenus.errors import SpanFailure
from ellgenus.genus import cp_chern, genus, genus_bivariate, split_product


@pytest.fixture()
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps({"dim": 2, "chern": {"1,1": 9, "2": 3}}))
    return str(path)


@pytest.fixture()
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(
        json.dumps({"dim0": 1, "dim1": 2, "chern": {"1|2": 6, "1|1,1": 18}})
    )
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
    fresh = functools.lru_cache(maxsize=None)(modforms._weight_basis_cached.__wrapped__)
    monkeypatch.setattr(modforms, "_weight_basis_cached", fresh)
    code = cli.main(["--level", "5", "--degree", "4", "basis"])
    assert code == 2
    assert "exceeds dimension" in capsys.readouterr().err


def test_genus_at_unsupported_level_fails_before_the_genus(cp2_file, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("genus must not run at an unsupported level")

    monkeypatch.setattr(cli, "genus", never)
    assert cli.main(["--level", "11", "genus", cp2_file]) == 3
    assert "genus-0" in capsys.readouterr().err


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
