"""CLI: exit codes, output files, and run manifests."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy

from phstab import alpha_factory, cli, contfrac, phs, rates


def run(args):
    return cli.main(args)


def test_cf_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "cf.csv"
    assert run(["cf", "--surd", "2", "--terms", "20", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,a_n,p_n,q_n"
    assert len(lines) == 22
    assert lines[1] == "0,1,1,1" and lines[2] == "1,2,3,2"
    manifest = json.loads((tmp_path / "cf.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "cf"
    assert manifest["outputs"] == [str(out)]
    assert "phstab" in manifest["versions"]
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_cf_rational_terminates_exit0(capsys):
    assert run(["cf", "--quotients", "1,2", "--terms", "5"]) == 0
    err = capsys.readouterr().err
    assert "terminated" in err


def test_cf_insufficient_precision_exit2(capsys):
    assert run(["cf", "--decimal", "1.41", "--bits", "8", "--terms", "30"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_quotient_values(tmp_path):
    out = tmp_path / "q.csv"
    assert run(["construct", "--powerlog", "4", "0", "--bits", "1024",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].split(",")[1] == "1"
    assert rows[2].split(",")[1] == "20"
    header = json.loads((out.parent / "q.csv.header.json").read_text())
    assert header["f"]["kind"] == "powerlog"


def test_construct_exp_a1(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["construct", "--exp", "1", "--bits", "4096",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[2].split(",")[1] == "10"


def test_construct_parses_targets_exactly(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["construct", "--exp", "0.1", "--bits", "256",
                "--out", str(out)]) == 0
    header = json.loads((tmp_path / "e.csv.header.json").read_text())
    assert header["f"] == {"kind": "exp", "beta": 0.1}
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert manifest["parameters"]["exp"] == "1/10"


@pytest.mark.parametrize("flags", [
    ["--exp", "0"], ["--exp", "-1"], ["--powerlog", "0", "1"],
    ["--powerlog", "2", "-1"], ["--exp", "1", "--bits", "16"],
    ["--exp", "1e400"],
])
def test_construct_rejected_target_exit2(flags, capsys):
    assert run(["construct", *flags]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1/0", "x"])
def test_construct_unparsable_target_exit2(value, capsys):
    assert run(["construct", "--exp", value]) == 2
    assert "not a finite rational number" in capsys.readouterr().err


def test_construct_bad_table_exit2(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(
        {"kind": "table", "pts": [[1.0, 0.5], [2.0, 0.9]]}))
    assert run(["construct", "--table", str(cfg)]) == 2


def test_growth_monotone_csv(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth", "--surd", "2", "--etas", "10,100,1000",
                "--tol", "1e-2", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    lows = [float(r[1]) for r in rows]
    ups = [float(r[2]) for r in rows]
    assert lows == sorted(lows) and ups == sorted(ups)
    assert all(lo <= up for lo, up in zip(lows, ups))


@pytest.mark.parametrize("quotients, singular", [("1,1073741824", False), ("0,3", True)])
def test_growth_claims_a_singularity_only_for_odd_odd_alpha(quotients, singular, capsys):
    # alpha = 1 + 2^-30 exits 2 on what float time cannot resolve; alpha = 1/3
    # on T_t's singularity at t = 3 pi
    assert run(["growth", "--quotients", quotients, "--etas", "10"]) == 2
    assert ("contains 0" in capsys.readouterr().err) == singular


def test_growth_warns_on_parked_upper_bounds(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["growth", "--decimal", "1.41421356", "--bits", "24",
                "--etas", "500,5000", "--tol", "1e-3", "--out", str(out)]) == 0
    assert "parked" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["parked_etas"] == [500.0, 5000.0]
    assert out.read_text().splitlines()[0] == "eta,m_lower,m_upper"
    pred = tmp_path / "p.csv"
    # m_upper(5000) is inf: the upper curve is refused, the lower one is used
    assert run(["rates", "--curve", str(out), "--kind", "LowerBound",
                "--times", "10000", "--out", str(pred)]) == 2
    assert run(["rates", "--curve", str(out), "--kind", "LowerBound",
                "--times", "10000", "--which", "lower", "--out", str(pred)]) == 0
    out2 = tmp_path / "g2.csv"
    assert run(["growth", "--surd", "2", "--etas", "5,10", "--out",
                str(out2)]) == 0
    assert "parked" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "g2.csv.manifest.json").read_text())
    assert manifest["parked_etas"] == []


def test_rates_pipeline(tmp_path):
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n1.0,1.0,1.0\n100.0,10000.0,10000.0\n")
    out = tmp_path / "pred.csv"
    assert run(["rates", "--curve", str(g), "--kind", "LowerBound",
                "--times", "100,10000", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    # the synthetic curve is eta^2, so LowerBound gives 1/sqrt(t)
    assert float(rows[0][1]) == pytest.approx(0.1, rel=1e-6)


def test_rates_with_c_t_past_the_float_range_clamps_to_the_curve_end(capsys):
    # C t = inf lies above the range: the sup convention gives the last eta
    assert run(["rates", "--curve", str(Path(__file__).parent / "data" / "growth_sqrt2.csv"),
                "--kind", "LowerBound", "--times", "10", "--C", "1e308"]) == 0
    assert capsys.readouterr().out == "t,bound,kind\n10.0,0.0001,LowerBound\n"


def test_rates_refuses_non_finite_upper_knot(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n50.0,233.9,236.2\n500.0,2305.8,inf\n")
    assert run(["rates", "--curve", str(g), "--kind", "LowerBound",
                "--times", "1000,100000"]) == 2
    err = capsys.readouterr().err
    assert "eta=500.0" in err and "m_upper" in err


def test_rates_lower_column_ignores_non_finite_upper(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n50.0,233.9,236.2\n500.0,2305.8,inf\n")
    assert run(["rates", "--curve", str(g), "--kind", "LowerBound",
                "--times", "1000,100000", "--which", "lower"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    bounds = [float(r[1]) for r in rows]
    assert all(math.isfinite(b) and b > 0 for b in bounds)
    assert bounds[0] > bounds[1]


def test_rates_rss_without_certificate_exit2(tmp_path):
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n1.0,1.0,1.0\n100.0,10000.0,10000.0\n")
    assert run(["rates", "--curve", str(g), "--kind", "RSS-upper",
                "--times", "100"]) == 2


def test_rates_rss_with_a_certificate_file(tmp_path, capsys):
    # M(eta) = eta^2 certified to increase positively: RSS-upper is 1/sqrt(t)
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n1.0,1.0,1.0\n100.0,10000.0,10000.0\n"
                 "10000.0,1e8,1e8\n")
    cert = tmp_path / "cert.json"
    cert.write_text(rates.positive_increase_estimate(
        rates.power_fn(2), [2, 10, 100], [1, 10, 100]).to_json())
    assert run(["rates", "--curve", str(g), "--kind", "RSS-upper",
                "--certificate", str(cert), "--times", "4,100,1e6"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(float(t), k) for t, _, k in rows] == [(4, "RSS-upper"), (100, "RSS-upper"),
                                                   (1e6, "RSS-upper")]
    for t, bound, _ in rows:
        assert float(bound) == pytest.approx(float(t) ** -0.5, rel=1e-6)


@pytest.mark.parametrize("alpha, vs, message", [
    (["--decimal", "1.4", "--bits", "20"], "5", "v=5, u/v=7/5"),
    (["--quotients", "3"], "1..3", "v=1, u/v=3/1"),
])
def test_sandwich_zero_odd_distance_exits_2(alpha, vs, message, capsys):
    assert run(["sandwich", *alpha, "--odd-v", vs]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}: alpha's enclosure does not separate v*alpha from u" in err


def test_sandwich_exit0(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--surd", "2", "--odd-v", "1..9",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("v,u,dist")
    assert len(lines) == 6  # v in {1,3,5,7,9}


_GOOD_SPECS = {
    "decimal": {"kind": "decimal", "digits": "0.1", "bits": 60},
    "quotients": {"kind": "quotients", "a": [1, 2]},
    "surd": {"kind": "surd", "D": 8, "p": 1, "q": 2},
    "rule": {"kind": "rule", "name": "construction",
             "f": {"target": {"kind": "exp", "beta": "1"}, "bit_budget": 100}},
}


@pytest.mark.parametrize("kind, key, bad", [
    # read as the double nearest 0.1, whose "guaranteed" 60-bit enclosure
    # excludes 1/10 (exit 0)
    ("decimal", "digits", 0.1),
    # both read as the quotients (1, 2) (exit 0)
    ("quotients", "a", [1.5, 2]),
    ("quotients", "a", "12"),
    # a traceback (exit 1)
    ("surd", "p", 0.5),
    ("surd", "q", 2.5),
    ("decimal", "bits", 10.7),
    # a bit budget that is no integer, or below construct's 64 bits (exit 0)
    ("rule", "bit_budget", 100.5),
    ("rule", "bit_budget", 40),
    # a JSON boolean, which operator.index reads as 1: the quotients (1, 2),
    # a 1-bit ball and p = 1 or q = 1 (exit 0)
    ("quotients", "a", [True, 2]),
    ("decimal", "bits", True),
    ("surd", "p", True),
    ("surd", "q", True),
])
def test_alpha_spec_field_of_the_wrong_type_exits_2(kind, key, bad, tmp_path, capsys):
    good = _GOOD_SPECS[kind]
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(good))
    assert run(["growth", "--alpha-json", str(path), "--etas", "10"]) == 0
    spec = {**good, "f": {**good["f"], key: bad}} if kind == "rule" else {**good, key: bad}
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert run(["growth", "--alpha-json", str(path), "--etas", "10"]) == 2
    err = capsys.readouterr().err
    assert "invalid alpha:" in err and "Traceback" not in err


def test_phs_scan_and_constants(tmp_path):
    cfg = tmp_path / "sys.json"
    cfg.write_text(phs.phsystem_to_json(phs.universal_example(1.0 / 3.0)))
    out = tmp_path / "scan.csv"
    grid = f"0:{4 * math.pi}:101"
    assert run(["phs", "--config", str(cfg), "--t-grid", grid,
                "--out", str(out)]) == 0
    consts = json.loads((tmp_path / "scan.csv.constants.json").read_text())
    assert consts["constants"]["C_tilde"] > 0
    assert consts["scan"]["verdict"] in ("invertible on grid",
                                         "grid singularity")


@pytest.fixture
def growing_b(tmp_path):
    """The stored seeded 16-piece system with P1 = diag(1, -2), written as a
    config: over 0.5:40:64 its B_t grows from about 1.2 to about 15, so
    constants taken at the grid's first, middle and last t would miss the
    largest B_t and the growth."""
    config = json.loads(Path(__file__).with_name("data").joinpath(
        "phs", "seeded16_p0_zero.json").read_text())
    config["P1"] = [["1.0", "0.0"], ["0.0", "-2.0"]]
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(config))
    return cfg


def test_phs_constants_are_those_of_the_scanned_grid(growing_b, tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["phs", "--config", str(growing_b), "--t-grid", "0.5:40:64",
                "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "scan.csv.constants.json").read_text())
    consts = summary["constants"]
    assert consts["B"] == summary["scan"]["B_estimate"]
    system = phs.phsystem_from_json(growing_b.read_text())
    grid = np.linspace(0.5, 40.0, 64)
    assert consts == dataclasses.asdict(phs.stability_scan(system, grid).constants)
    assert consts["b_flagged"] is True
    assert consts["b_note"].startswith("WARNING: B_t grows across grid")


def test_phs_builds_phi_once_per_grid_t(growing_b, monkeypatch):
    built = []
    build = phs.FundamentalMatrix.__init__

    def counted_build(self, sys, ts):
        built.extend(ts)
        build(self, sys, ts)

    monkeypatch.setattr(phs.FundamentalMatrix, "__init__", counted_build)
    assert run(["phs", "--config", str(growing_b), "--t-grid", "0.5:40:64"]) == 0
    assert built == np.linspace(0.5, 40.0, 64).tolist()


def test_phs_bad_config_exit2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{\"d\": 2}")
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:1:2"]) == 2


@pytest.mark.parametrize("where, value, message", [
    # parent behaviour: exit 0 and "invertible on grid"; a LinAlgError
    # traceback (exit 1); exit 2 blaming P1's eigenvalues; exit 2 blaming
    # an overflow of the fundamental matrix
    (("H", "pieces", 0, 1, 1), "inf", "H piece 0: non-finite entry"),
    (("W", 0, 2), "nan", "W: non-finite entry"),
    (("P1", 1, 1), "nan", "P1: non-finite entry"),
    (("H", "breaks", 1), "nan", "H breakpoints: non-finite entry"),
])
def test_phs_non_finite_config_exits_2(where, value, message, tmp_path, capsys):
    config = json.loads(phs.phsystem_to_json(phs.universal_example(2.0**0.5)))
    *path, last = where
    node = config
    for key in path:
        node = node[key]
    node[last] = value
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:10:5"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_phs_config_with_an_h_piece_lu_finds_singular_exits_2(tmp_path, capsys):
    # a traceback from numpy's LinAlgError (exit 1) before validation refused it
    config = json.loads(phs.phsystem_to_json(phs.universal_example(2.0**0.5)))
    config["H"]["pieces"][0] = [["0.10287468153155428", "0.3037951306906277"],
                                ["0.3037951306906277", "0.8971253184684458"]]
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(config))
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:10:5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "H piece 0: singular to working precision" in err
    assert "Traceback" not in err


def test_phs_config_refused_by_the_validator_reads_as_the_refusal(tmp_path, capsys):
    # the reader wrapped it: "error: malformed system config: H piece 0: ..."
    config = json.loads(phs.phsystem_to_json(phs.universal_example(2.0**0.5)))
    config["H"]["pieces"][0] = [["0.10287468153155428", "0.3037951306906277"],
                                ["0.3037951306906277", "0.8971253184684458"]]
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(config))
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:1:3"]) == 2
    err = capsys.readouterr().err
    assert "error: H piece 0: singular to working precision" in err
    assert "malformed" not in err and "Traceback" not in err


def test_verify_suites(capsys):
    assert run(["verify", "rates"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert run(["verify", "nonsense"]) == 2
    # every suite, plainly and under -O: the phs suite holds the CLI's
    # 4096-node resolvent solve
    env = dict(os.environ, PYTHONPATH=_SRC)
    for flags in ([], ["-O"]):
        res = subprocess.run([sys.executable, *flags, "-m", "phstab.cli", "verify", "all"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 8 and all(line.startswith("PASS") for line in lines), res.stdout


_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_sandwich_violation_exits_1(flags):
    # a zero sandwich constant makes the certified upper bound fail
    code = (
        "import sys\n"
        "from phstab import cli, spectral\n"
        "spectral._sandwich_constant = lambda ball: 0.0\n"
        "sys.exit(cli.main(['sandwich', '--surd', '2', '--odd-v', '1..3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    res = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr


def test_verify_appendix_identity_failure_exits_1(monkeypatch, capsys):
    # the identities line is the convergent-bound check of the 50-term table
    failed = contfrac.BoundReport(3, Fraction(1), Fraction(-1))
    monkeypatch.setattr(contfrac, "check_bounds", lambda table: [failed])
    assert run(["verify", "appendix"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  appendix: appendix identities [sqrt2]" in out


def test_verify_out_writes_the_report_and_its_manifest(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert run(["verify", "rates", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == ("PASS  rates: RSS-upper 1/sqrt(t)\n"
                               "PASS  rates: M_log round-trip\n")
    manifest = json.loads((tmp_path / "v.txt.manifest.json").read_text())
    assert manifest["subcommand"] == "verify" and manifest["outputs"] == [str(out)]


class _File(str):
    """An argv item that stands for a file holding this text."""


_CURVE = "eta,m_lower,m_upper\n1.0,1.0,1.0\n100.0,10000.0,10000.0\n"
_RATES = ["rates", "--kind", "RSS-upper", "--times", "100"]
_SANDWICH_CSV = ("v,u,dist,inf_lower,inf_upper,ratio_lo,ratio_hi\n"
                 "1,1,0.414,0.2823,0.2824,1.645,1.646\n"
                 "3,5,0.757,0.8796,0.8797,1.533,1.534\n")


@pytest.mark.parametrize("argv", [
    ["cf", "--surd", "4"],
    ["cf", "--quotients", "1,0,2"],
    ["cf", "--decimal", "abc", "--bits", "20"],
    ["cf", "--surd", "2", "--terms", "-1"],
    ["cf", {"kind": "bogus"}],
    ["cf", {"kind": "surd"}],
    ["cf", {"kind": "rule", "name": "nope"}],
    ["growth", "--surd", "2", "--etas", "a"],
    ["growth", "--surd", "2", "--etas", "10", "--tol", "0"],
    ["sandwich", "--surd", "2", "--odd-v", "1..x"],
    ["phs", "--t-grid", "0:1"],
    ["cf", {"kind": "rule", "name": "construction", "f": {}}],
    ["cf", {"kind": "rule", "name": "construction",
            "f": {"target": {"kind": "exp", "beta": -1}}}],
    ["growth", "--surd", "2", "--etas", "10", "--bits", "-500"],
    ["cf", {"kind": "rule", "name": "construction",
            "f": {"target": {"kind": "table", "pts": [[1.0, 0.5], [2.0, 0.9]]}}}],
    [*_RATES, "--curve", _File("eta,m_lower,m_upper\n1,2\n100,3,4\n")],
    [*_RATES, "--curve", _File("eta,m_lower,m_upper\n1,x,2\n100,3,4\n")],
    ["rates", "--kind", "LowerBound", "--times", "10,100", "--curve", _File(_SANDWICH_CSV)],
    [*_RATES, "--curve", _File(_CURVE), "--certificate",
     _File('{"c": 1, "lambda_grid": [2], "t_grid": [1]}')],
    ["construct", "--table", _File('{"pts": [[1, 1], [2, 0.5]]}')],
    ["construct", "--table", _File('{"kind": "table"}')],
    ["construct", "--table", _File("[1, 2]")],
    # engine input (spectral._engine_start): times that float time cannot
    # hold, each a traceback before or, for v = 2^53 + 1, a search of the
    # float window [2^53 - 1, 2^53], and alpha = sqrt(1000), past the
    # |alpha| <= 8 of the kernel's rounding argument
    ["growth", "--surd", "2", "--etas", "nan"],
    ["growth", "--surd", "2", "--etas", "10,inf"],
    ["sandwich", "--surd", "2", "--odd-v", str(2**1100 + 1)],
    ["sandwich", "--surd", "2", "--odd-v", str(2**53 + 1)],
    ["growth", "--surd", "1000", "--etas", "10,100"],
    ["sandwich", "--surd", "1000", "--odd-v", "1..9"],
    # non-finite times and constants of a rate formula
    ["rates", "--kind", "LowerBound", "--times", "nan,10", "--curve", _File(_CURVE)],
    ["rates", "--kind", "LowerBound", "--times", "inf", "--curve", _File(_CURVE)],
    ["rates", "--kind", "BattyDuyckaerts", "--times", "10", "--c", "nan",
     "--curve", _File(_CURVE)],
    ["rates", "--kind", "LowerBound", "--times", "10", "--C", "inf",
     "--curve", _File(_CURVE)],
    # growth curves whose etas do not rise, or whose m falls
    ["rates", "--kind", "LowerBound", "--which", "lower", "--times", "8",
     "--curve", _File("eta,m_lower,m_upper\n1,1,1\n100,100,100\n10,10,10\n")],
    ["rates", "--kind", "LowerBound", "--which", "lower", "--times", "8",
     "--curve", _File("eta,m_lower,m_upper\n1,5,5\n100,2,2\n")],
    # an eta that is not finite and positive: a math domain error traceback
    # for a first eta of 0, bounds printed with exit 0 for a last eta of inf
    ["rates", "--kind", "LowerBound", "--times", "10",
     "--curve", _File("eta,m_lower,m_upper\n0,1,1\n100,100,100\n")],
    ["rates", "--kind", "LowerBound", "--times", "10",
     "--curve", _File("eta,m_lower,m_upper\n1,1,1\ninf,100,100\n")],
    # a tol that is not finite: exit 0 with an m_upper of inf, and a
    # sandwich whose upper_ok can no longer fail
    ["growth", "--surd", "2", "--etas", "10", "--tol", "inf"],
    ["sandwich", "--surd", "2", "--odd-v", "1..3", "--tol", "inf"],
    # a certificate of malformed fields, or of another kind: predictions
    # printed with exit 0
    [*_RATES, "--curve", _File(_CURVE), "--certificate", _File(
        '{"alpha_hat": "x", "c": null, "lambda_grid": "ab", "t_grid": "cd"}')],
    [*_RATES, "--curve", _File(_CURVE), "--certificate", _File(
        '{"kind": "positive-increase-refutation", "alpha_hat": 2, "c": 1, '
        '"lambda_grid": [2], "t_grid": [1]}')],
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    if isinstance(argv[1], dict):  # an --alpha-json file
        spec = tmp_path / "alpha.json"
        spec.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--alpha-json", str(spec)]
    for i, item in enumerate(argv):
        if isinstance(item, _File):
            path = tmp_path / f"input{i}"
            path.write_text(item)
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    if argv[0] == "phs":
        cfg = tmp_path / "sys.json"
        cfg.write_text(phs.phsystem_to_json(phs.universal_example(2.0**0.5)))
        argv = [*argv, "--config", str(cfg)]
    assert run(argv) == 2  # also where argparse rejects a flag value itself
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("field, bad", [("d", 2.5), ("P1", [[True, "0.0"], ["0.0", "1.0"]])])
def test_phs_config_with_a_fractional_d_or_a_boolean_entry_exits_2(field, bad, tmp_path,
                                                                    capsys):
    # both scanned with exit 0: d read as 2 by int(), true as 1.0 by float()
    good = json.loads((Path(__file__).parent / "data" / "phs" / "universal_sqrt2.json")
                      .read_text())
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({**good, field: bad}))
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:1:3"]) == 2
    err = capsys.readouterr().err
    assert "error: malformed system config:" in err and "Traceback" not in err


def test_construct_header_sidecar_is_the_header_line_it_prints(tmp_path, capsys):
    argv = ["construct", "--powerlog", "4", "0", "--bits", "1024"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "alpha.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    header = (tmp_path / "alpha.csv.header.json").read_text()
    assert header.endswith("}\n") and printed == out.read_text() + header
    manifest = json.loads((tmp_path / "alpha.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(out) + ".header.json"]


def test_cf_past_a_construction_depth_exits_2(tmp_path, capsys):
    spec = tmp_path / "c.json"
    spec.write_text(json.dumps(
        alpha_factory.construct(alpha_factory.PowerLog(4, 0), 1024).spec.to_json()))
    assert run(["cf", "--alpha-json", str(spec), "--terms", "6"]) == 0
    capsys.readouterr()
    assert run(["cf", "--alpha-json", str(spec), "--terms", "10"]) == 2
    err = capsys.readouterr().err
    assert "depth 7 reached" in err and "rational" not in err


def test_cf_at_a_construction_depth_names_the_undecidable_index(tmp_path, capsys):
    # depth 7: alpha lies between p_6/q_6 and p_7/q_7, so the bound at
    # n = 6 cannot be decided, and the table to a_6 (--terms 6) is the
    # longest that checks
    spec = tmp_path / "c.json"
    spec.write_text(json.dumps(
        alpha_factory.construct(alpha_factory.PowerLog(4, 0), 1024).spec.to_json()))
    assert run(["cf", "--alpha-json", str(spec), "--terms", "7"]) == 2
    err = capsys.readouterr().err
    assert "n = 6" in err and "last bound" in err and "widest enclosure" in err
    assert "table to a_6 is the longest that checks" in err and "Traceback" not in err


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "1:-inf:2"])
def test_phs_non_finite_grid_end_names_the_grid(grid, tmp_path, capsys):
    config = Path(__file__).parent / "data" / "phs" / "universal_sqrt2.json"
    assert run(["phs", "--config", str(config),
                "--t-grid", grid, "--out", str(tmp_path / "scan.csv")]) == 2
    err = capsys.readouterr().err
    assert f"--t-grid: cannot read {grid!r}" in err and "overflow" not in err


@pytest.mark.parametrize("argv", [
    ["phs", "--config", str(Path(__file__).parent / "data" / "phs" / "universal_sqrt2.json"),
     "--t-grid", "0:1:1e17"],
    ["sandwich", "--surd", "2", "--odd-v", "1..100000000000000001"],
])
def test_an_input_too_large_to_hold_exits_2(argv, capsys):
    # 1e17 points lie past the address space: the allocation fails at once
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_rates_rss_with_a_certificate_its_curve_does_not_meet_exit2(tmp_path, capsys):
    # a flat curve is not of positive increase, whatever a certificate claims
    g = tmp_path / "g.csv"
    g.write_text("eta,m_lower,m_upper\n10.0,5.0,5.0\n100.0,5.0,5.0\n1000.0,5.0,5.0\n")
    cert = tmp_path / "cert.json"
    claim = rates.PositiveIncreaseCertificate(2.0, 1.0, (2.0, 10.0), (10.0, 100.0))
    cert.write_text(claim.to_json())
    assert run(["rates", "--curve", str(g), "--kind", "RSS-upper",
                "--certificate", str(cert), "--times", "4,100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: certificate fails at (lambda, t) = (2.0, 10.0)" in err


def test_growth_and_sandwich_manifest_summaries(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth", "--surd", "2", "--etas", "10,100", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    mids = [(float(r[1]) + float(r[2])) / 2 for r in rows]
    slope = math.log(mids[1] / mids[0]) / math.log(10)
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["loglog_slope"] == pytest.approx(slope, rel=1e-9)
    assert run(["growth", "--surd", "2", "--etas", "10", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "g.csv.manifest.json").read_text())["loglog_slope"] is None
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--surd", "2", "--odd-v", "1..9", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["ratio_span"] == [min(float(r[5]) for r in rows),
                                      max(float(r[6]) for r in rows)]


@pytest.mark.parametrize("argv", [
    ["rates", "--curve", "growth_sqrt2.csv", "--kind", "LowerBound", "--times", "10"],
    ["phs", "--config", "phs/universal_sqrt2.json", "--t-grid", "0:1:2"],
    ["verify", "rates"],
])
def test_bits_is_refused_where_it_does_nothing(argv, capsys):
    data = Path(__file__).parent / "data"
    argv = [str(data / a) if a.endswith((".csv", ".json")) else a for a in argv]
    assert run([*argv, "--bits", "8"]) == 2
    assert "unrecognized arguments: --bits 8" in capsys.readouterr().err


def test_main_returns_argparse_exit_codes(capsys):
    # argparse's SystemExit escaped main, where every other bad input returns 2
    assert run(["growth", "--surd", "2", "--etas", "10", "--bits", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["--help"]) == 0 and "usage:" in capsys.readouterr().out


def test_manifest_records_the_parameters_alone(tmp_path):
    out = tmp_path / "cf.csv"
    assert run(["cf", "--decimal", "1.41421356", "--bits", "24", "--terms", "5",
                "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "cf.csv.manifest.json").read_text())
    assert "bits_default" not in manifest
    assert manifest["parameters"]["bits"] == 24


@pytest.mark.parametrize("grid, reason", [
    ("nan:1:3", "LO and HI must be finite"),
    ("0:1:0", "N must be at least 1"),
    ("0:1:2.5", "N must be an integer, not 2.5"),
    ("0:1:inf", "N must be an integer, not inf"),
    ("0:1", "not enough values to unpack"),
])
def test_unreadable_grid_names_the_reason(grid, reason, capsys):
    config = Path(__file__).parent / "data" / "phs" / "universal_sqrt2.json"
    assert run(["phs", "--config", str(config), "--t-grid", grid]) == 2
    err = capsys.readouterr().err
    assert f"--t-grid: cannot read {grid!r}: {reason}" in err


def test_sandwich_on_a_decimal_with_fewer_bits_than_asked(tmp_path):
    # --bits 60 is both the literal's guarantee and the sandwich's target:
    # the sandwich's one enclosure, asked at its engine's precision, is the
    # literal's widest, and it decides every v
    cols = []
    for flags in (["--decimal", "1.4142135623730950488", "--bits", "60"],
                  ["--surd", "2"]):
        out = tmp_path / "s.csv"
        assert run(["sandwich", *flags, "--odd-v", "1..9", "--out", str(out)]) == 0
        cols.append([r.split(",")[1] for r in out.read_text().splitlines()])
    assert cols[0] == cols[1]
