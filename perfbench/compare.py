#!/usr/bin/env python3
"""Compare two sets of benchmark records (the JSON files run.py writes to
perfbench/out/).

    python3 perfbench/compare.py --base out/a*.json --new out/b*.json

For each workload and end-to-end metric it prints both medians and quartiles
and the change against the bound in BENCHMARK.json. Records whose
environment stamps differ (Python, mpmath backend, library versions, nproc,
BLAS threads) are not comparable: the comparison is flagged and no gain or
regression is reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def _quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    stamps = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(stamps) > 1:
        keys = sorted({k for s in stamps for k in json.loads(s)})
        differ = {k: sorted({json.dumps(json.loads(s).get(k)) for s in stamps}) for k in keys}
        print("FLAGGED: environment stamps differ; no gain or regression is reported")
        for k, vals in differ.items():
            if len(vals) > 1:
                print(f"  {k}: {' vs '.join(vals)}")
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    worse_any = False
    for wl in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == wl and r["trace"] == 0]
        n = [r for r in new if r["workload"] == wl and r["trace"] == 0]
        if not b or not n:
            print(f"{wl}: missing untraced records on one side")
            continue
        print(f"{wl}: {len(b)} base runs, {len(n)} new runs")
        for name, (bound, better) in bounds.items():
            bq = _quartiles([r["end_to_end"][name] for r in b])
            nq = _quartiles([r["end_to_end"][name] for r in n])
            change = (nq[1] - bq[1]) / bq[1]
            worse = change > bound if better == "lower" else -change > bound
            spread = (bq[2] - bq[0]) / bq[1]
            verdict = "WORSE beyond bound" if worse else (
                "unresolved (spread > bound)" if spread > bound else "within bound")
            worse_any |= worse
            print(f"  {name:<12} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  new {nq[1]:.5g} "
                  f"[{nq[0]:.5g}, {nq[2]:.5g}]  change {change:+.3f} (bound {bound})  {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
