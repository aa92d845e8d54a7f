"""Command-line frontend: subcommands, formats, exit codes."""
import json

import pytest

from bnlocus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_plain(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "3", "--rank", "2",
                       "--degree", "2", "--sections", "2")
    assert code == 0
    assert "verdict: Empty" in out and "bgn" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "10", "--rank", "2",
                       "--degree", "13", "--sections", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NonEmpty"
    assert any(e["rule"] == "teixidor" for e in doc["evidence"])
    assert doc["mu"] == "13/2" and doc["lambda"] == "3/2"


def test_classify_hyperelliptic(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "4", "--rank", "4",
                       "--degree", "14", "--sections", "9", "--curve", "hyperelliptic")
    assert code == 0 and "verdict: Empty" in out and "hyper_gap" in out


def test_boundary_values(capsys):
    assert run(capsys, "boundary", "--genus", "10", "--fn", "f", "--mu", "13/2")[1] == "19/10\n"
    assert run(capsys, "boundary", "--genus", "10", "--fn", "t", "--mu", "13/2")[1] == "3/2\n"
    assert run(capsys, "boundary", "--genus", "4", "--fn", "h", "--mu", "4")[1] == "5/2\n"


def test_boundary_curve_compare(capsys):
    code, out, _ = run(capsys, "boundary", "--genus", "10", "--fn", "rho",
                       "--mu", "9", "--lambda", "3")
    assert code == 0 and "on the expected-dimension curve" in out


def test_region_membership(capsys):
    code, out, _ = run(capsys, "region", "--genus", "10", "--id", "bmno",
                       "--mu", "13/2", "--lambda", "19/10")
    assert code == 0 and out == "In\n"
    code, out, _ = run(capsys, "region", "--genus", "10", "--id", "bmno",
                       "--mu", "7", "--lambda", "2", "--json")
    assert code == 0 and json.loads(out)["member"] is False


def test_polyline_json(capsys):
    code, out, _ = run(capsys, "polyline", "--genus", "10", "--id", "teixidor")
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "teixidor" and doc["segments"]


def test_enumerate_csv(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(capsys, "enumerate", "--genus", "2", "--max-rank", "1",
                     "--out", str(out_file))
    assert code == 0
    text = out_file.read_bytes().decode()
    lines = [ln for ln in text.split("\r\n") if ln]
    assert lines[0].startswith("genus,rank")
    assert len(lines) == 1 + sum(1 + d for d in range(0, 3))


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop411", "--genus-max", "8")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--genus-min", "4",
                       "--genus-max", "4", "--max-rank", "1")
    assert code == 0 and out.startswith("oracle: genus 4..4, den<=1, ")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "sigma", "--genus-min", "0", "--max-den", "0"),
    ("verify", "--suite", "sigma", "--genus-min", "4", "--genus-max", "4", "--max-den", "0"),
    ("verify", "--suite", "inclusions", "--genus-max", "0"),
    ("verify", "--suite", "prop411", "--genus-min", "3", "--genus-max", "3", "--max-den", "0"),
    ("verify", "--suite", "oracle", "--genus-min", "0"),
    ("verify", "--suite", "oracle", "--genus-max", "3", "--max-rank", "0"),
    ("compare", "--genus", "4", "--max-den", "0"),
])
def test_verify_explicit_zero_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--genus", "12", "--max-den", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_bmno_not_teixidor_count"] > 0
    assert doc["in_teixidor_not_bmno_count"] == 0


def test_plot_writes_file(capsys, tmp_path):
    out_file = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "plot", "--genus", "10", "--regions", "bmno,teixidor",
                     "--out", str(out_file))
    assert code == 0 and out_file.exists()
    assert out_file.read_text().startswith("<?xml")


def test_unknown_verdict_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "3", "--rank", "3",
                       "--degree", "6", "--sections", "4")
    assert code == 0
    assert "verdict: Unknown" in out and "rules attempted" in out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "classify", "--genus", "3")[0] == 1
    assert run(capsys, "region", "--genus", "3", "--id", "nope",
               "--mu", "1", "--lambda", "1")[0] == 1
    assert run(capsys, "boundary", "--genus", "10", "--fn", "f", "--mu", "1.5")[0] == 1


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "plot", "--genus", "10", "--regions", "bmno",
                       "--out", str(tmp_path / "missing" / "fig.svg"))
    assert code == 3 and "i/o error" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_byte_identical_output(capsys):
    a = run(capsys, "classify", "--genus", "4", "--rank", "2", "--degree", "7",
            "--sections", "4", "--curve", "hyperelliptic", "--json")[1]
    b = run(capsys, "classify", "--genus", "4", "--rank", "2", "--degree", "7",
            "--sections", "4", "--curve", "hyperelliptic", "--json")[1]
    assert a == b
