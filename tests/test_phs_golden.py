"""Golden ``phs`` runs: the CSV and ``.constants.json`` of
``phstab phs --config <system> --t-grid 0.5:40:64`` for two stored systems.

``tests/data/phs/`` holds, per system, the config (``<name>.json``) and the
outputs (``<name>.csv``, ``<name>.csv.constants.json``). The systems are the
universal example with alpha = sqrt 2, and a seeded 16-piece system with
P0 = 0. LAPACK's last bits differ between builds, so floats are compared
to ``rtol=1e-12``; every other field (the header, t, the verdict, counts,
flags and notes) must be equal. A change that does change an output
regenerates the data on purpose with

    PYTHONPATH=src python tests/test_phs_golden.py

and says which field changed and why.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phstab import cli, phs

DATA = Path(__file__).parent / "data" / "phs"
GRID = "0.5:40:64"
NAMES = ("universal_sqrt2", "seeded16_p0_zero")
RTOL = 1e-12


def _run(name: str, out: Path) -> int:
    return cli.main(["phs", "--config", str(DATA / f"{name}.json"), "--t-grid", GRID,
                     "--out", str(out)])


def _assert_close(got, want, where: str) -> None:
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=where)
    else:
        assert got == want, where


@pytest.mark.parametrize("name", NAMES)
def test_phs_run_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert _run(name, out) == 0
    assert capsys.readouterr().out == ""
    got = list(csv.reader(out.read_text().splitlines()))
    want = list(csv.reader((DATA / f"{name}.csv").read_text().splitlines()))
    assert got[0] == want[0] == ["t", "abs_det", "sigma_min", "inv_norm"]
    assert len(got) == len(want) == 65
    for g, w in zip(got[1:], want[1:]):
        assert g[0] == w[0]  # t, exactly as the grid gives it
        _assert_close([float(x) for x in g[1:]], [float(x) for x in w[1:]], f"t={w[0]}")
    _assert_close(
        json.loads((tmp_path / "scan.csv.constants.json").read_text()),
        json.loads((DATA / f"{name}.csv.constants.json").read_text()),
        name,
    )


def _seeded16() -> phs.PHSystem:
    rng = np.random.default_rng(16)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 15)), [1.0]])
    pieces = []
    for _ in range(16):
        g = rng.normal(size=(2, 2))
        pieces.append(g @ g.T + 0.5 * np.eye(2))
    return phs.PHSystem(
        d=2, P0=np.zeros((2, 2)), P1=np.eye(2),
        breaks=tuple(float(x) for x in breaks), pieces=tuple(pieces),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )


def _regenerate() -> None:
    """Write the configs (if missing) and the golden outputs."""
    DATA.mkdir(parents=True, exist_ok=True)
    systems = {"universal_sqrt2": lambda: phs.universal_example(math.sqrt(2)),
               "seeded16_p0_zero": _seeded16}
    for name in NAMES:
        cfg = DATA / f"{name}.json"
        if not cfg.exists():
            cfg.write_text(phs.phsystem_to_json(systems[name]()) + "\n")
        out = DATA / f"{name}.csv"
        assert _run(name, out) == 0
        (DATA / f"{name}.csv.manifest.json").unlink()


if __name__ == "__main__":
    _regenerate()
