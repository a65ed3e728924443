"""CLI: exit codes, output files, and run manifests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phstab import cli, contfrac, phs


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
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--exp", value])
    assert exc.value.code == 2
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


def test_growth_warns_on_parked_upper_bounds(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["growth", "--decimal", "1.41421356", "--bits", "24",
                "--etas", "50,500", "--tol", "1e-3", "--out", str(out)]) == 0
    assert "parked" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["parked_etas"] == [50.0, 500.0]
    assert out.read_text().splitlines()[0] == "eta,m_lower,m_upper"
    pred = tmp_path / "p.csv"
    # m_upper(500) is inf: the upper curve is refused, the lower one is used
    assert run(["rates", "--curve", str(out), "--kind", "LowerBound",
                "--times", "1000", "--out", str(pred)]) == 2
    assert run(["rates", "--curve", str(out), "--kind", "LowerBound",
                "--times", "1000", "--which", "lower", "--out", str(pred)]) == 0
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


def test_sandwich_exit0(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--surd", "2", "--odd-v", "1..9",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("v,u,dist")
    assert len(lines) == 6  # v in {1,3,5,7,9}


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


def test_phs_bad_config_exit2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{\"d\": 2}")
    assert run(["phs", "--config", str(cfg), "--t-grid", "0:1:2"]) == 2


def test_verify_suites(capsys):
    assert run(["verify", "rates"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert run(["verify", "nonsense"]) == 2


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


def test_cf_identity_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(contfrac.ConvergentTable, "check_identity",
                        lambda self: False)
    assert run(["cf", "--surd", "2", "--terms", "10"]) == 1
    assert "identity" in capsys.readouterr().err


def test_verify_appendix_identity_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(contfrac.ConvergentTable, "check_identity",
                        lambda self: False)
    assert run(["verify", "appendix"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  appendix: appendix identities [sqrt2]" in out


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
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    if isinstance(argv[1], dict):  # an --alpha-json file
        spec = tmp_path / "alpha.json"
        spec.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--alpha-json", str(spec)]
    if argv[0] == "phs":
        cfg = tmp_path / "sys.json"
        cfg.write_text(phs.phsystem_to_json(phs.universal_example(2.0**0.5)))
        argv = [*argv, "--config", str(cfg)]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_bad_phstab_bits_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PHSTAB_BITS", "12x")
    assert run(["cf", "--surd", "2"]) == 2
    assert "PHSTAB_BITS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-500"])
def test_phstab_bits_below_one_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("PHSTAB_BITS", value)
    assert run(["cf", "--surd", "2"]) == 2
    assert "PHSTAB_BITS" in capsys.readouterr().err


def test_sandwich_on_a_decimal_with_fewer_bits_than_asked(tmp_path):
    # --bits 60 is both the literal's guarantee and the sandwich's target:
    # min_odd_dist asks for 60 + bits(v) + 8 and decides on the literal's
    # widest enclosure
    cols = []
    for flags in (["--decimal", "1.4142135623730950488", "--bits", "60"],
                  ["--surd", "2"]):
        out = tmp_path / "s.csv"
        assert run(["sandwich", *flags, "--odd-v", "1..9", "--out", str(out)]) == 0
        cols.append([r.split(",")[1] for r in out.read_text().splitlines()])
    assert cols[0] == cols[1]
