"""Import cost: scipy loads only for the dense matrix-exponential fallback
and for the run manifest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# A fresh interpreter: this test process already holds scipy.linalg
# (tests/test_phs.py imports it).  Failures exit 1 with a message rather
# than assert, so the check also holds under python -O.
_CHILD = """
import sys

import numpy as np

from phstab import (alpha_factory, cli, contfrac, diophantine, errors,
                    intervals, phs, rates, spectral)


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


if "scipy.linalg" in sys.modules:
    fail("importing phstab loaded scipy.linalg")
if cli.main(["sandwich", "--surd", "2", "--odd-v", "1..3"]) != 0:
    fail("sandwich run failed")
if "scipy" in sys.modules:
    fail("a sandwich run without --out imported scipy")

system = phs.universal_example(2 ** 0.5)
xs = np.linspace(0.0, 1.0, 5)
eig = phs.FundamentalMatrix(system, 7.3).at_many(xs)
if "scipy.linalg" in sys.modules:
    fail("the eigen path loaded scipy.linalg")
phs._EIG_COND_MAX = 0.0
phi = phs.FundamentalMatrix(system, 7.3)
if not phi._stack.dense.all():
    fail("the dense fallback was not taken")
err = np.abs(phi.at_many(xs) - eig).max() / np.abs(eig).max()
if not err <= 1e-10:
    fail(f"dense and eigen paths differ by {err:.3g} relative")
if "scipy.linalg" not in sys.modules:
    fail("the dense fallback ran without scipy.linalg")
"""


def test_scipy_linalg_loads_only_for_the_dense_fallback():
    env = dict(os.environ, PYTHONPATH=_SRC)
    res = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_bench_tracer_binds_every_target_and_unwinds(monkeypatch):
    # perfbench/tracer.py wraps public phstab names by attribute lookup and
    # raises on any that is gone; after uninstall no wrapper may be left
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    with tracer.Tracer().installed():  # raises if a wrapped name is gone
        assert "phstab.spectral.g_at_witness" in tracer.leftover_wrappers()
    assert tracer.leftover_wrappers() == []


@pytest.mark.parametrize("module", ["phs", "rates"])
def test_every_all_name_resolves(module):
    # a stale __all__ entry breaks ``from phstab.<module> import *``
    namespace = {}
    exec(f"from phstab.{module} import *", namespace)
    assert [n for n in sys.modules[f"phstab.{module}"].__all__ if n not in namespace] == []
