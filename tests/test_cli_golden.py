"""Golden CLI outputs: stdout, stderr and the exit code of a fixed run set.

Each run's expected bytes live in ``tests/data/golden/<name>.{out,err,rc}``.
The runs read three input files under ``tests/data/``: ``cons.json`` is the
construction spec ``construct(PowerLog(2, 0), 1024).spec.to_json()`` in the
format that still writes the spec-level ``bit_budget`` (it must keep
reading), ``growth_sqrt2.csv`` is the ``growth_sqrt2_decades`` curve as
the cosine-sum sup kernel computed it, before the sup read |w|^2 over two
phases (kept as it was, so that the ``rates_*`` runs keep their bytes), and
``table.json`` is a decreasing tabulated decay target. A refactor that
should not change any output is checked by this file alone; a change that
does change an output regenerates the data on purpose with

    PYTHONPATH=src python tests/test_cli_golden.py

and says which run changed and why. ``phs`` is not in the set: its LAPACK
bits differ between builds.
"""

import sys
import time
from pathlib import Path

import pytest

from phstab import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
CONS = "{data}/cons.json"  # "{data}" is replaced by the path of tests/data
CURVE = "{data}/growth_sqrt2.csv"

RUNS = {
    "cf_sqrt2": ["cf", "--surd", "2", "--terms", "40"],
    "cf_construction": ["cf", "--alpha-json", CONS, "--terms", "100"],
    "construct_powerlog4": ["construct", "--powerlog", "4", "0", "--bits", "4096"],
    "construct_exp1": ["construct", "--exp", "1", "--bits", "1024"],
    "construct_table": ["construct", "--table", "{data}/table.json", "--bits", "1024"],
    "growth_sqrt2_half_decades": [
        "growth", "--surd", "2", "--etas", "10,31.6227766,100,316.227766,1000"],
    "growth_sqrt2_decades": ["growth", "--surd", "2", "--etas", "10,100,1000,10000"],
    "growth_construction": ["growth", "--alpha-json", CONS, "--etas", "5,10,50"],
    "growth_decimal24": ["growth", "--decimal", "1.41421356", "--bits", "24",
                         "--etas", "50,500", "--tol", "1e-3"],
    # the sup's mpmath fallback: points the float kernel's rounding blocks
    "growth_sqrt2_1e5": ["growth", "--surd", "2", "--etas", "100000"],
    "rates_lower_bound": ["rates", "--curve", CURVE, "--kind", "LowerBound",
                          "--times", "10,100,1000,10000,100000"],
    "rates_batty_duyckaerts": ["rates", "--curve", CURVE, "--kind", "BattyDuyckaerts",
                               "--times", "100,1000,10000,100000"],
    "sandwich_sqrt2": ["sandwich", "--surd", "2", "--odd-v", "1..999"],
    "sandwich_sqrt5": ["sandwich", "--surd", "5", "--odd-v", "1..301"],
    "sandwich_decimal24": ["sandwich", "--decimal", "1.41421356", "--bits", "24",
                           "--odd-v", "1..99"],
    "sandwich_decimal60": ["sandwich", "--decimal", "1.4142135623730950488",
                           "--bits", "60", "--odd-v", "1..99"],
    "sandwich_surd_p1_q3": ["sandwich", "--surd", "2", "--surd-p", "1",
                            "--surd-q", "3", "--odd-v", "1..199"],
    "sandwich_quotients": ["sandwich", "--quotients", "1,2,2,2,2,2,2,2",
                           "--odd-v", "1..99"],
    # the inf's mpmath fallback: pi t past the kernel's reduction range 2^22
    "sandwich_sqrt2_beyond_reduction": ["sandwich", "--surd", "2",
                                        "--odd-v", "1399999..1400009"],
    "verify_all": ["verify", "all"],
}


def _argv(name):
    return [a.replace("{data}", str(DATA)) for a in RUNS[name]]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_byte_identical(name, capsys):
    rc = cli.main(_argv(name))
    got = capsys.readouterr()
    assert rc == int((GOLDEN / f"{name}.rc").read_text())
    # as bytes, so that a change of line ends shows
    assert got.err == (GOLDEN / f"{name}.err").read_bytes().decode()
    assert got.out == (GOLDEN / f"{name}.out").read_bytes().decode()


def _regenerate() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(_argv(name))
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
        (GOLDEN / f"{name}.err").write_text(err.getvalue())
        (GOLDEN / f"{name}.rc").write_text(f"{rc}\n")
        print(f"{name}: exit {rc}, {time.perf_counter() - t0:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
