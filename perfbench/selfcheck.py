#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size (about a minute).

    python3 perfbench/selfcheck.py

1. Every end-to-end and per-layer metric named in BENCHMARK.json is printed
   with its unit, by untraced and traced runs of every workload.
2. No tracer wrapper is left installed after a run, nor after an exception
   inside a traced region.
3. Two traced runs on one seed give identical ``.calls`` counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from functools import partial
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracer import Tracer, _targets, leftover_wrappers  # noqa: E402

SEED = 3


def _run(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace)])
    if code != 0:
        raise SystemExit(f"{name} trace={trace}: exit {code}\n{out.getvalue()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if e2e != run.END_TO_END or layer != run.PER_LAYER:
        problems.append("BENCHMARK.json metric names/units differ from run.py")
    if [w["name"] for w in bench["workloads"]] != list(workloads.BUILDERS):
        problems.append("BENCHMARK.json workloads differ from workloads.BUILDERS")

    for name, build in list(workloads.BUILDERS.items()):
        workloads.BUILDERS[name] = partial(build, size=workloads.TINY)
        try:
            plain = _run(name, 0)
            traced = [_run(name, 1), _run(name, 1)]
        finally:
            workloads.BUILDERS[name] = build
        for res, want in [(plain, e2e)] + [(t, layer) for t in traced]:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name}: metrics/units {sorted(set(got) ^ set(want))} mismatch")
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")} for t in traced]
        if calls[0] != calls[1]:
            diff = {k: (calls[0][k], calls[1][k]) for k in calls[0] if calls[0][k] != calls[1][k]}
            problems.append(f"{name}: .calls differ between traced runs: {diff}")
        if leftover_wrappers():
            problems.append(f"{name}: wrappers left after run: {leftover_wrappers()}")
        print(f"{name}: ok" if not problems else f"{name}: {problems}")

    originals = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
                 for _, _, owner, attr, _ in _targets()]
    try:
        with Tracer().installed():
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    restored = all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is orig
        for owner, attr, orig in originals
    )
    if leftover_wrappers() or not restored:
        problems.append("wrappers survive an exception inside the traced region")

    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
