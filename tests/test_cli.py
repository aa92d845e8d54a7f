"""Command-line frontend: subcommands, formats, exit codes."""
import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlocus import cli
from bnlocus.arith import Triple
from bnlocus.cli import _dump_json, build_parser, main


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


def test_boundary_outside_domain_exits_one(capsys):
    assert run(capsys, "boundary", "--genus", "4", "--fn", "f", "--mu", "9") == (
        1, "", "error: 9 outside domain (0, 6)\n")


def test_boundary_curve_compare(capsys):
    code, out, _ = run(capsys, "boundary", "--genus", "10", "--fn", "rho",
                       "--mu", "9", "--lambda", "3")
    assert code == 0 and "on the expected-dimension curve" in out
    assert run(capsys, "boundary", "--genus", "10", "--fn", "rho", "--mu", "7") == (
        0, "curve value near 2.162278\n", "")


@pytest.mark.parametrize("fn", ["f", "t", "h"])
def test_boundary_lambda_needs_rho(capsys, fn):
    # a boundary function reads only --mu, so a --lambda it would ignore is
    # a usage error, as is an option verify's suite would ignore
    assert run(capsys, "boundary", "--genus", "4", "--fn", fn, "--mu", "1", "--lambda", "2") == (
        1, "", "error: --lambda applies only to --fn rho\n")


@pytest.mark.parametrize("token, extra, message", [
    ("p", ("--mode", "nonhyperelliptic"), "--mode applies only to --id bmno"),
    ("p", ("--mode", "stable"), "--mode applies only to --id bmno"),  # given, though equal to the default
    ("teixidor", ("--mode", "semistable"), "--mode applies only to --id bmno"),
    ("bmno", ("--semistable",), "--semistable applies only to --id teixidor"),
    ("tbgn:2:2", ("--semistable",), "--semistable applies only to --id teixidor"),
])
def test_region_rejects_options_it_does_not_read(capsys, token, extra, message):
    # only bmno reads --mode and only teixidor reads --semistable, so either
    # given with another region is a usage error, not a silent default
    assert run(capsys, "region", "--genus", "4", "--id", token, "--mu", "1", "--lambda", "1", *extra) == (
        1, "", f"error: {message}\n")


def test_region_membership(capsys):
    code, out, _ = run(capsys, "region", "--genus", "10", "--id", "bmno",
                       "--mu", "13/2", "--lambda", "19/10")
    assert code == 0 and out == "In\n"
    code, out, _ = run(capsys, "region", "--genus", "10", "--id", "bmno",
                       "--mu", "7", "--lambda", "2", "--json")
    assert code == 0 and json.loads(out)["member"] is False


# every region token, on an edge of its region and just off it: (genus,
# token, mu, lambda, extra options, answer)
REGION_CASES = [
    (4, "p", "0", "1", (), "In"),                     # mu >= 2 lam - 2 edge
    (4, "p", "0", "101/100", (), "Out"),
    (4, "p", "4", "1", (), "Out"),                    # strict mu < lam + g - 1 edge
    (4, "p", "4", "101/100", (), "In"),
    (4, "r", "3", "2", (), "In"),                     # the slope g - 1 edge
    (4, "r", "301/100", "2", (), "Out"),
    (4, "bgn", "1", "99/100", (), "In"),              # below the excluded corner
    (4, "bgn", "1", "1", (), "Out"),
    (4, "bgn", "1/2", "7/8", (), "In"),               # top line
    (4, "bgn", "1/2", "701/800", (), "Out"),
    (4, "m", "2", "99/100", (), "In"),                # the sliver
    (4, "m", "2", "1", (), "Out"),
    (4, "m", "101/100", "1/2", (), "In"),             # open left edge
    (4, "m", "1", "1/2", (), "Out"),
    (4, "tbgn:2:2", "3", "199/100", (), "In"),
    (4, "tbgn:2:2", "3", "2", (), "Out"),
    (4, "tm:1:2", "3", "199/100", (), "In"),
    (4, "tm:1:2", "3", "2", (), "Out"),
    (4, "tm:1:2", "5/2", "9/4", (), "In"),
    (4, "tm:1:2", "5/2", "901/400", (), "Out"),
    (10, "bmno", "13/2", "19/10", (), "In"),          # on the seesaw f
    (10, "bmno", "13/2", "191/100", (), "Out"),
    (10, "bmno", "7", "2", (), "Out"),                # chain level at an integer slope
    (10, "bmno", "7", "2", ("--mode", "semistable"), "In"),
    (10, "bmno", "7", "199/100", (), "In"),
    (10, "teixidor", "13/2", "3/2", (), "In"),        # on the plateau of t
    (10, "teixidor", "13/2", "151/100", (), "Out"),
    (4, "teixidor", "1", "1", (), "Out"),             # stable exclusion
    (4, "teixidor", "1", "1", ("--semistable",), "In"),
    (4, "bmnoh", "5/2", "7/4", (), "In"),             # on h
    (4, "bmnoh", "5/2", "701/400", (), "Out"),
    (4, "bmnoh", "2", "1", (), "In"),                 # image of the known point (2, 1)
    (4, "bmnoh", "2", "101/100", (), "Out"),
    (10, "bncurve", "9", "3", (), "In"),              # rho~ = 0
    (10, "bncurve", "9", "301/100", (), "Out"),
]


@pytest.mark.parametrize("g, token, mu, lam, extra, answer", REGION_CASES)
def test_region_every_token(capsys, g, token, mu, lam, extra, answer):
    code, out, err = run(capsys, "region", "--genus", str(g), "--id", token, "--mu", mu, "--lambda", lam, *extra)
    assert (code, out, err) == (0, answer + "\n", "")


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
    assert code == 0 and out.startswith("oracle: genus 4..4, rank<=1, ")
    assert run(capsys, "verify", "--suite", "teixidor", "--genus-max", "6") == (
        0, "boundary_gap_t: genus 3..6, 54 checks: PASS\n", "")


def test_verify_out_writes_one_report_per_suite(capsys, tmp_path):
    out_file = tmp_path / "reports.json"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--genus-min", "4", "--genus-max", "4",
                       "--max-den", "2", "--max-rank", "1", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert isinstance(doc, list)
    assert [r["suite"] for r in doc] == ["boundary_gap_f", "boundary_gap_t", "inclusions", "sigma", "oracle"]
    assert [r["checks_run"] for r in doc] == [6, 11, 271, 1243, 224]
    # --max-den reaches the two grid suites only
    assert ["max_denominator" in r for r in doc] == [False, False, True, True, False]
    assert out == ("boundary_gap_f: genus 4..4, 6 checks: PASS\n"
                   "boundary_gap_t: genus 4..4, 11 checks: PASS\n"
                   "inclusions: genus 4..4, den<=2, 271 checks: PASS\n"
                   "sigma: genus 4..4, den<=2, 1243 checks: PASS\n"
                   "oracle: genus 4..4, rank<=1, 224 checks: PASS\n")
    code, _, _ = run(capsys, "verify", "--suite", "prop411", "--genus-max", "4", "--out", str(out_file))
    assert code == 0 and [r["suite"] for r in json.loads(out_file.read_text())] == ["boundary_gap_f"]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "sigma", "--genus-min", "0", "--max-den", "0"),
    ("verify", "--suite", "sigma", "--genus-min", "4", "--genus-max", "4", "--max-den", "0"),
    ("verify", "--suite", "inclusions", "--genus-max", "0"),
    ("verify", "--suite", "prop411", "--genus-min", "3", "--genus-max", "3", "--max-den", "0"),
    ("verify", "--suite", "oracle", "--genus-min", "0"),
    ("verify", "--suite", "oracle", "--genus-max", "3", "--max-rank", "0"),
    ("compare", "--genus", "4", "--max-den", "0"),
    ("enumerate", "--genus", "4", "--max-rank", "0"),
    ("enumerate", "--genus", "1", "--max-rank", "0"),
    ("verify", "--suite", "oracle", "--max-den", "0"),
    ("verify", "--suite", "prop411", "--max-rank", "-7"),
    ("verify", "--suite", "prop411", "--max-den", "5"),
    ("verify", "--suite", "teixidor", "--max-den", "5"),
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


@pytest.mark.parametrize("once, twice", [("bmno", "bmno,bmno"), ("tbgn:1:2", "tbgn:1:2,TBGN:1:2")])
def test_plot_draws_and_lists_each_region_once(capsys, tmp_path, once, twice):
    figures = []
    for regions in (once, twice):
        out_file = tmp_path / f"{len(figures)}.svg"
        assert run(capsys, "plot", "--genus", "4", "--regions", regions, "--out", str(out_file)) == (0, "", "")
        figures.append(out_file.read_bytes())
    assert figures[0] == figures[1]


@pytest.mark.parametrize("regions", ["bncurve", "bmno,bncurve", "bncurve,teixidor"])
def test_plot_rejects_the_curve_region(capsys, tmp_path, regions):
    # the expected-dimension curve is no polyline; plots draw it by itself
    assert run(capsys, "plot", "--genus", "4", "--regions", regions, "--out", str(tmp_path / "fig.svg")) == (
        1, "", "error: no piecewise-linear boundary for region 'bncurve'\n")


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


def test_contradiction_exit_code(capsys, inject_empty):
    inject_empty(Triple(1, 2, 1))
    code, out, err = run(capsys, "classify", "--genus", "4", "--rank", "1", "--degree", "2",
                         "--sections", "1", "--curve", "generic")
    assert (code, out) == (2, "")
    assert err == ("internal contradiction: contradictory evidence at (n=1, d=2, k=1) [generic,stable]: "
                   "line_bundle_existence:nonempty; mercat_slope2:nonempty; tensor_effective:nonempty; "
                   "tensor_integer_slope:nonempty; teixidor:nonempty; injected:empty; serre:nonempty\n")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_byte_identical_output(capsys):
    a = run(capsys, "classify", "--genus", "4", "--rank", "2", "--degree", "7",
            "--sections", "4", "--curve", "hyperelliptic", "--json")[1]
    b = run(capsys, "classify", "--genus", "4", "--rank", "2", "--degree", "7",
            "--sections", "4", "--curve", "hyperelliptic", "--json")[1]
    assert a == b


_CLASSIFY = "classify --genus 3 --rank 2 --degree 2 --sections 2"

# sha256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80, recorded
# while every request still built the parser of all eight subcommands; keyed
# by the space-joined argv.  argparse words and wraps its texts differently
# from one Python minor version to the next, so the digests hold for 3.11.
CLI_TEXTS = [
    ("", "47b7400ebf7fee253124fbd394672756a2a64e4c05c15aedab754c86cc304862"),
    ("-h", "b0a237b22de7757461ced4b729b7838581201e04f9b57074b4bd61f2d76142f1"),
    ("--help", "b0a237b22de7757461ced4b729b7838581201e04f9b57074b4bd61f2d76142f1"),
    ("-h classify", "b0a237b22de7757461ced4b729b7838581201e04f9b57074b4bd61f2d76142f1"),
    ("foo", "2fab3ad454552f6f3d82af6e559d8009a178bb8157f4194985705860e361a35f"),
    ("classif", "330bf72ee4ec32794c3ca48f747c241d37f6f7ffa489f636a2275d6901ba8ce6"),
    ("--bogus", "47b7400ebf7fee253124fbd394672756a2a64e4c05c15aedab754c86cc304862"),
    ("--bogus classify", "047d0a4ac2376cc1f869ba94c1a5a7099228dccc564987810c0a65126a98b6b6"),
    ("classify", "047d0a4ac2376cc1f869ba94c1a5a7099228dccc564987810c0a65126a98b6b6"),
    ("classify -h", "9ecf86ba7a6732eaee243ba8d5861dc241a566ab922d84a8f0de5276dbfd4662"),
    ("classify --nope", "047d0a4ac2376cc1f869ba94c1a5a7099228dccc564987810c0a65126a98b6b6"),
    ("boundary", "2a447c1c483e5199e0392839ee537e54617eda6f9fdbdb18cd8c2f51024c93de"),
    ("boundary -h", "ba31f7c8f1adce9169e0a6070ed1d1423df1711702aa07623aa7dde9508b23b9"),
    ("boundary --nope", "2a447c1c483e5199e0392839ee537e54617eda6f9fdbdb18cd8c2f51024c93de"),
    ("region", "9e3ed1557090015a67131c1d68b24230c50f1c21f468a20b5d926fb8c5b2b998"),
    ("region -h", "3f7bb9eb0caf8807cd74856607e4ca2cdbc124fd4c746de5fccc236001695b7a"),
    ("region --nope", "9e3ed1557090015a67131c1d68b24230c50f1c21f468a20b5d926fb8c5b2b998"),
    ("polyline", "8212fb35f5fbd54f51a80a87103dff513e650ddbbb906c581ca2982a6b5758df"),
    ("polyline -h", "bda59c2d193c47474b6e980b9ad72b113374157f568ac09c7f078bca29e25274"),
    ("polyline --nope", "8212fb35f5fbd54f51a80a87103dff513e650ddbbb906c581ca2982a6b5758df"),
    ("plot", "180ab942ad842d8fc436e199969ae20501a6168d7eb30dfa961c1e32d79ef8f0"),
    ("plot -h", "908775b416f62d721471b15666f877ba7ebfc196c406e11c3e8a54ae06c26897"),
    ("plot --nope", "180ab942ad842d8fc436e199969ae20501a6168d7eb30dfa961c1e32d79ef8f0"),
    ("enumerate", "691a6cfdc00edda598e67bbd191ee8289ec84fba22f87e3b9f5093f88910f8a1"),
    ("enumerate -h", "db91e7ec664b6b67176d4b9545903255e327a1eddcc75822d8c8074bb573e11e"),
    ("enumerate --nope", "691a6cfdc00edda598e67bbd191ee8289ec84fba22f87e3b9f5093f88910f8a1"),
    ("verify", "dbfb426ded31fede7e5e8e15729d8cdb87a892acca68202d3736257f679ff617"),
    ("verify -h", "caa08cc61b21fe8235e516ae03b62260affa77bd2a1ff3417090be8dba14db79"),
    ("verify --nope", "dbfb426ded31fede7e5e8e15729d8cdb87a892acca68202d3736257f679ff617"),
    ("compare", "37bd73a1ca853bd31633a6a12683366e5849585f95496965f6d8a82f0bb52aec"),
    ("compare -h", "acdd86a8d833f5746a18adc8ccf5afefbb3d46020f943100508f2fb6711b43ee"),
    ("compare --nope", "37bd73a1ca853bd31633a6a12683366e5849585f95496965f6d8a82f0bb52aec"),
    (_CLASSIFY + " --bogus", "2740585652622837a9ec3c3e62f631c1f76cb2eca5f0602381aa9b74a32229ed"),
    (_CLASSIFY + " --curve nope", "2134c426d8a7f6a90ea69914121cab4dbd40d5b5f5c550e3db5c28eb4bb80a09"),
    ("classify --genus x --rank 2 --degree 2 --sections 2", "61138109a794558d454ddb765dbb28a8ab877458f4dadf9a7edcc6e36775729e"),
    (_CLASSIFY + " extra", "7448ed0b27a6de5675a02a1dee01790465d16b159521c40eff692669232bf1f2"),
    (_CLASSIFY + " --bogus=1", "a912bdbab29a944bb9a1619adb078e69054b5f683c5d4b3eb6bd8b059d4d98a4"),
    ("--bogus=1 " + _CLASSIFY, "a912bdbab29a944bb9a1619adb078e69054b5f683c5d4b3eb6bd8b059d4d98a4"),
    (_CLASSIFY + " --sem", "2132e01cfdffa80af0484067702c229791597c06843ada1e7f1a1e815d5b49d3"),
    (_CLASSIFY + " --rank 3", "bd4dcc4304be21ff6e8949095aa3b5186499c49b166471684980c1383f14cba4"),
    (_CLASSIFY + " --", "d455c29ac4c9b081d1742e623711ed01fb0fa5efbcbb7f846018cebea0bd20f8"),
    ("classify -- --genus 3 --rank 2 --degree 2 --sections 2", "047d0a4ac2376cc1f869ba94c1a5a7099228dccc564987810c0a65126a98b6b6"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse texts recorded under Python 3.11")
@pytest.mark.parametrize("argv, digest", CLI_TEXTS, ids=[a or "<empty>" for a, _ in CLI_TEXTS])
def test_cli_text_golden(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    record = json.dumps(list(run(capsys, *argv.split())))
    assert hashlib.sha256(record.encode()).hexdigest() == digest


_PROBLEM = ("--rank", "2", "--degree", "7", "--sections", "4")

# argvs whose texts argparse alone decides (an ``=``, an abbreviation, a
# repeat, a value that starts with ``-``, a failed type or choice check, a
# missing option, ``--``, help) or that read a padded or non-ASCII int:
# sha256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80, recorded
# while argparse parsed every argv.  Tuples, since some values hold spaces.
FALLBACK_TEXTS = [
    (("classify", "--genus=4", *_PROBLEM), "f2e069d14575bfce98cabc55e000431042678245c81fb774fc14404d09bb9018"),
    (("classify", "--gen", "4", *_PROBLEM), "f2e069d14575bfce98cabc55e000431042678245c81fb774fc14404d09bb9018"),
    (("classify", "--genus", "3", "--genus", "4", *_PROBLEM),
     "f2e069d14575bfce98cabc55e000431042678245c81fb774fc14404d09bb9018"),
    (("classify", "--genus", "４", *_PROBLEM), "f2e069d14575bfce98cabc55e000431042678245c81fb774fc14404d09bb9018"),
    (("classify", "--genus", "4", "--rank", "2", "--degree", "-1", "--sections", "1"),
     "49a5123caa6fec3727b096e9d51289cccaf950f3b891f0f28649e3476ced46de"),
    (("classify", "--genus", "4", "--rank", "2", "--degree", " 4", "--sections", "1"),
     "2b0f9499b7ce145d151a897b237e7b8f897bd52fb5aa962c1bea85b7e0d95544"),
    (("classify", "--genus", "4", "--rank", "x", "--degree", "7", "--sections", "4"),
     "86087c548498836bcfe023f8aead2f458fe42ce43a588dec007ebe2957143316"),
    (("classify", "--genus", "", *_PROBLEM), "ca3ee9978b4521e6896b708263dc05f34c776973e0b3f2e05bd2ea0c7cb70fff"),
    (("classify", "--genus", "4", *_PROBLEM, "--curve", "bogus"),
     "91c3e653c0ca5e62ff02ead7d7d9efc24fecf70bb13177a8ec8093203d2f0a74"),
    (("classify", "--genus", "4", *_PROBLEM, "--curve"), "a4550c1a025668c7beb5ea927fed17fb35193229978064fb041885473c3d7d62"),
    (("classify", "--genus", "4", "--rank", "2", "--degree", "7"),
     "bdf22e7fa3dec53ecd410a18cd6282fa672730b0173d442fb775524bcf668b77"),
    (("classify", "--genus", "4", "--", *_PROBLEM), "3d5083d1bf33bbd9ed1358b3e60dd5735ffa295f5ca0c628d0b10a500815e5cb"),
    (("classify", "--genus", "4", "--rank", "2", "-h"), "9ecf86ba7a6732eaee243ba8d5861dc241a566ab922d84a8f0de5276dbfd4662"),
    (("classify", "--genus", "4", *_PROBLEM, "--json", "--json"),
     "3b6044fe8b98c1ab78591b9e1203382f68be5a7a9390ee28a8c71cd27a489f3b"),
    (("boundary", "--genus", "4", "--fn", "f", "--mu", "-1"), "7d3c0bf1ca15596037f9fe6329395401c888869a71cedeefc1f3d283ede9f2cb"),
    (("verify", "--suite", "oracle", "--max-den", "2"), "f575e722203b6a77e81a15f588704aa3758f839fe1f11a4950041fa1d2130d60"),
    (("region", "--genus", "4", "--id", "p", "--mu", "0", "--lambda", "1", "--mode", "nope"),
     "ca933ba0ec60fa39db9ed8727ccc131f54fd740645f674175eacbda27e21f6d0"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse texts recorded under Python 3.11")
@pytest.mark.parametrize("argv, digest", FALLBACK_TEXTS, ids=[" ".join(a) for a, _ in FALLBACK_TEXTS])
def test_fallback_text_golden(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    record = json.dumps(list(run(capsys, *argv)))
    assert hashlib.sha256(record.encode()).hexdigest() == digest


# sha256 of the indented JSON bytes each command writes, recorded while
# ``_dump_json`` was ``json.dumps(obj, indent=2) + "\n"``: (argv, whether
# the JSON goes to ``--out`` rather than stdout, digest).  The three
# graph-region polylines were recorded again when their inclusion flags
# became region membership, cut at every integer slope.
JSON_TEXTS = [
    ("polyline --genus 10 --id teixidor", False, "0ae688c66b8463041e0bfae9142fa0e1c990a55024547a7d1dffb068f75e54e1"),
    ("polyline --genus 13 --id bmno", False, "13dbdb43cc2106f7fc8e400851ed356beef0835be07083c0aabcc4ab4051447c"),
    ("polyline --genus 4 --id bmnoh", False, "755ccffc25d4fd25377ea3353adcc57a5b99a2d2eb766e60627fba2b3ba2520f"),
    ("polyline --genus 4 --id tm:1:2", False, "823e86f1f9eee1f055bb98898ae2dc8487876135142b691154248a1b5acfa511"),
    ("polyline --genus 5 --id bgn", False, "371c2f81f579597a94a6d51c07475d2508ab21d575f3243c6ef9dbf1a8e0c76e"),
    ("region --genus 10 --id bmno --mu 13/2 --lambda 19/10 --json", False,
     "ca1c3e326bd23629900154deae6ae17b819aa2e8b52bdbb7b806ce229b4ae41e"),
    ("region --genus 10 --id bmno --mu 7 --lambda 2 --json", False,
     "30cddb4407007a1da86015c38bfa29e88ab518c1e7024e99a1bcba9b0bc5ed2a"),
    ("compare --genus 10", True, "63fe485b73f5e79143eed5dd2e6c41798ce63462a85a504ecb8153895a403918"),
    ("verify --suite all --genus-max 4 --max-den 2 --max-rank 1", True,
     "4c9da5db51cb364a48112dfab24bfb81891d930c86668e6be9a2f76fc25b8419"),
]


@pytest.mark.parametrize("argv, to_file, digest", JSON_TEXTS, ids=[a for a, _, _ in JSON_TEXTS])
def test_json_text_golden(capsys, tmp_path, argv, to_file, digest):
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *argv.split(), *(("--out", str(out_file)) if to_file else ()))
    assert (code, err) == (0, "")
    data = out_file.read_bytes() if to_file else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


_BOUNDARY = "boundary --genus 10 --fn rho --mu 9 --lambda 3"


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    assert run(capsys, *_BOUNDARY.split())[0] == 0
    assert run(capsys, "-h")[0] == 0
    assert run(capsys, "classif")[0] == 1
    assert run(capsys, "--bogus", "classify")[0] == 1
    assert main(iter(_BOUNDARY.split())) == 0  # any iterable, as argparse takes
    assert build_parser.cache_info().misses == 1


def test_shared_parser_keeps_no_state(capsys):
    classify = (_CLASSIFY + " --curve hyperelliptic --json").split()
    assert '"stability": "semistable"' in run(capsys, *classify, "--semistable")[1]
    first = run(capsys, *classify)
    assert first[0] == 0 and '"stability": "stable"' in first[1]
    assert run(capsys, *classify, "--bogus")[0] == 1
    assert run(capsys, *classify) == first


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse texts recorded under Python 3.11")
def test_shared_parser_formats_help_when_printed(capsys, monkeypatch):
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    record = json.dumps(list(run(capsys, "-h")))
    assert hashlib.sha256(record.encode()).hexdigest() == dict(CLI_TEXTS)["-h"]


_INTS = st.one_of(st.integers(0, 30).map(str),
                  st.sampled_from(["-1", "-30", "-0", "04", " 4", "4 ", "+4", "1_0", "", "x", "４", "٣"]))
_STRS = st.one_of(st.sampled_from(["p", "tbgn:2:2", "13/2", "0", "", "a b", "é", "-", "-1", "-x", "-h", "--", "--id"]),
                  st.text(max_size=3))


def _value(action):
    """Strategy: the tokens after ``action``'s option string, none for a flag."""
    if action.nargs == 0:
        return st.just([])
    value = _INTS if action.type is int else _STRS
    if action.choices is not None:
        value = st.sampled_from([*action.choices, "nope", ""])
    return value.map(lambda v: [v])


@st.composite
def _subcommand_argvs(draw):
    """A subcommand and tokens built from its parser's actions: each action
    given by an exact option string and its value, or left out, in any
    order; then, half the time, one of them repeated, joined to its value
    by ``=``, abbreviated, left without its value or preceded by noise."""
    name = draw(st.sampled_from(list(build_parser().commands)))
    command = build_parser().commands[name]
    groups = [(a, draw(st.sampled_from(a.option_strings)), draw(_value(a)))
              for a in draw(st.permutations([a for a in command._actions if a.dest != "help"]))
              if draw(st.sampled_from((True, True, True, True, False)))]
    tokens = [[opt, *value] for _, opt, value in groups]
    if groups and draw(st.booleans()):
        i = draw(st.integers(0, len(groups) - 1))
        action, opt, value = groups[i]
        tokens[i] = draw(st.sampled_from([
            [opt, *value, opt, *draw(_value(action))], ["=".join([opt, *value])], [opt[:-1], *value], [opt],
            ["--", opt, *value], ["-h", opt, *value], ["extra", opt, *value], ["--bogus=1", opt, *value],
        ]))
    return name, [t for group in tokens for t in group]


@settings(max_examples=300, deadline=None)
@given(_subcommand_argvs())
def test_plain_parse_matches_argparse(argv):
    name, tokens = argv
    command = build_parser().commands[name]
    args = cli._plain(command, tokens)
    if args is not None:
        namespace, extras = command.parse_known_args(tokens)
        assert (vars(args), []) == (vars(namespace), extras)


def test_plain_leaves_typed_string_defaults_to_argparse():
    # argparse converts such a default when its option is not given
    parser = argparse.ArgumentParser()
    parser.add_argument("--width", type=int, default="900")
    parser.plain = cli._plain_table(parser)
    assert cli._plain(parser, []) is None and parser.parse_known_args([])[0].width == 900


def test_request_stream_skips_argparse(monkeypatch):
    # every argv of the form the classify-stream benchmark sends is read
    # from the actions, so that a change to the options cannot silently send
    # the stream back through argparse
    parser = build_parser()
    command = parser.commands["classify"]
    for curve in sorted(c.value for c in cli.CurveClass):
        for flags in ((), ("--json",), ("--semistable",), ("--json", "--semistable")):
            argv = ["classify", "--genus", "10", "--rank", "2", "--degree", "13", "--sections", "3",
                    "--curve", curve, *flags]
            want = vars(command.parse_known_args(argv[1:])[0])
            with monkeypatch.context() as m:
                m.setattr(command, "parse_known_args", None)
                m.setattr(parser, "parse_args", None)
                assert vars(cli._parse(parser, argv)) == want


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the path of ``python -m bnlocus`` and of the console script
    monkeypatch.setattr(sys, "argv", ["bnlocus", "boundary", "--genus", "10", "--fn", "f", "--mu", "13/2"])
    assert main() == 0
    assert capsys.readouterr().out == "19/10\n"
    monkeypatch.setattr(sys, "argv", ["bnlocus"])
    assert main(None) == 1
    assert "required: command" in capsys.readouterr().err


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


# the values the commands write: strings (with control, non-ASCII and lone
# surrogate characters), bools, ints of any size, lists, and dicts with
# string keys
_text = st.text(st.characters(exclude_categories=()))
_leaves = st.one_of(_text, st.booleans(), st.integers(), st.integers(min_value=-10**80, max_value=10**80))
_values = st.recursive(_leaves, lambda inner: st.one_of(st.lists(inner), st.dictionaries(_text, inner)),
                       max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_dump_json_matches_json_dumps(value):
    assert _dump_json(value) == json.dumps(value, indent=2) + "\n"


# every other value raises TypeError, wherever it sits, although json.dumps
# writes most of them: no command writes one
@pytest.mark.parametrize("value, name", [
    (1.5, "float"), (None, "NoneType"), ((1, 2), "tuple"), ({1, 2}, "set"), (b"x", "bytes"), (object(), "object"),
    (_Str("a"), "_Str"), (_Int(1), "_Int"), (_Dict(a=1), "_Dict"), ({1: 2}, None), ({(1, 2): 3}, None),
], ids=["float", "None", "tuple", "set", "bytes", "object", "str-subclass", "int-subclass", "dict-subclass",
        "int-key", "tuple-key"])
def test_dump_json_rejects_other_types(value, name):
    for doc in (value, [1, value], {"a": value}, {"a": [{"b": value}]}):
        with pytest.raises(TypeError) as exc:
            _dump_json(doc)
        if name is not None:
            assert str(exc.value) == f"Object of type {name} is not JSON serializable"


# every value json.dumps refuses, the writer refuses too.  It checks types
# before it descends, so it may name another offender than json does: a
# tuple before the bytes inside it, a dict subclass before the set inside
# it, a non-str key (which json would write) before a set value
@pytest.mark.parametrize("value, same_message", [
    ({1, 2}, True), ([1, {"a": object()}], True), ({"a": ({"b": b"x"},)}, False), ({(1, 2): 3}, False),
    ({"a": {(1, 2): 3}}, False), ([_Dict(a=[{1}])], False), ({"a": {1}, (1, 2): 3}, True), ({"a": 1, 2: {3}}, False),
], ids=[f"value{i}" for i in range(8)])
def test_dump_json_raises_what_json_raises(value, same_message):
    with pytest.raises(TypeError) as ours:
        _dump_json(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert (str(ours.value) == str(theirs.value)) is same_message


def test_unserialisable_output_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "polyline_json_dict", lambda g, rid: {"segments": [{1}]})
    assert run(capsys, "polyline", "--genus", "4", "--id", "p") == (
        1, "", "error: Object of type set is not JSON serializable\n")


IMPORT_THEN_PLOT = """
import sys
sys.path.insert(0, sys.argv[1])
import bnlocus, bnlocus.cli
print(sorted(sys.modules))
print(bnlocus.cli.main(["plot", "--genus", "10", "--regions", "bmno,teixidor", "--out", sys.argv[2]]))
print(sorted(sys.modules))
"""


def test_import_leaves_plotting_unloaded(tmp_path):
    # plot is the one command that draws, so it imports the plotting module
    # itself; no module loads dataclasses or the inspect module it pulls in
    out_file = tmp_path / "fig.svg"
    proc = subprocess.run([sys.executable, "-c", IMPORT_THEN_PLOT, str(Path(__file__).resolve().parents[1] / "src"),
                           str(out_file)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, code, plotted = proc.stdout.splitlines()
    assert "'bnlocus.sweep'" in imported and "'bnlocus.plotting'" not in imported
    assert code == "0" and "'bnlocus.plotting'" in plotted and out_file.read_text().startswith("<?xml")
    for modules in (imported, plotted):
        assert "'dataclasses'" not in modules and "'inspect'" not in modules
