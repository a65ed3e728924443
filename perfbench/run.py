#!/usr/bin/env python3
"""phstab benchmark: seeded workloads run through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload growth --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process on one thread.
Each job is one public call (or a short chain a user would make) and is
issued only after the previous one returned; a job that passes its deadline
is abandoned and counted as failed. The fixed job list of the workload is
run a fixed number of times (``Workload.passes``); ``--seconds`` only caps
the job time, so that a very slow machine stops early rather than
overrunning. Every timing is scaled to a reference host speed measured
right next to it (see ``probe``), and each job's latency is its fastest
scaled pass. Results of the first pass are checked against independent
oracles; later passes must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
passes untraced, then as many traced (see tracer.py), each half capped at
half of ``--seconds``, and prints the per-layer metrics and
``trace_overhead_ratio``. Human-readable lines
come first; the last line of standard output is one JSON object. A record
of the run (environment stamp, input shares, failures, metrics) goes to
``perfbench/out/``, spans of traced runs next to it.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 5

# Host-speed probe. The machine is shared: its speed switches between a fast
# state and states up to 2x slower that last from a second to minutes, so
# whole runs can fall in a slow state. A fixed loop of mpmath's low-level
# float cosine and of small-integer arithmetic (no phstab, no mpmath
# context, no numpy) is timed right before and right after every job and
# set-up; each timing is multiplied by
# PROBE_REF_S / (the faster of its two probes), which expresses it at the
# host speed at which the probe takes PROBE_REF_S. No change to phstab can
# move the probe. PROBE_REF_S is the probe's fastest time on the 2-core
# x86-64 host (CPython 3.11.7, pure-Python mpmath) the benchmark was sized
# on; on another host the scaled times are in units of that host's speed.
PROBE_LOOP = 120
PROBE_REF_S = 0.00115

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Quality metrics: printed with the end-to-end ones, but listed in the
# result line with the per-layer ones, because they are 0 on some workloads.
QUALITY = {
    "fail_share": "ratio",
    "bracket_rel_width_max": "ratio",
    "resolvent_residual_max": "1",
}
# (metric name, stat name, field, unit)
LAYER_FIELDS = [
    ("intervals.iv_trig.calls", "intervals.iv_trig", "calls", "count"),
    ("intervals.iv_trig.self_s", "intervals.iv_trig", "self_s", "s"),
    ("intervals.unit_phase.calls", "intervals.unit_phase", "calls", "count"),
    ("intervals.unit_phase.self_s", "intervals.unit_phase", "self_s", "s"),
    ("intervals.workprec.calls", "intervals.workprec", "calls", "count"),
    ("intervals.workprec.bits_max", "intervals.workprec", "bits_max", "bits"),
    ("spectral.inv_norm_iv.calls", "spectral.inv_norm_iv", "calls", "count"),
    ("spectral.inv_norm_iv.self_s", "spectral.inv_norm_iv", "self_s", "s"),
    ("spectral.growth_curve.calls", "spectral.growth_curve", "calls", "count"),
    ("spectral.growth_curve.self_s", "spectral.growth_curve", "self_s", "s"),
    ("spectral.phases.calls", "spectral.phases", "calls", "count"),
    ("spectral.inf_h_interval.calls", "spectral.inf_h_interval", "calls", "count"),
    ("spectral.inf_h_interval.self_s", "spectral.inf_h_interval", "self_s", "s"),
    ("spectral.g_at_witness.calls", "spectral.g_at_witness", "calls", "count"),
    ("spectral.g_at_witness.self_s", "spectral.g_at_witness", "self_s", "s"),
    ("diophantine.min_odd_dist.calls", "diophantine.min_odd_dist", "calls", "count"),
    ("diophantine.min_odd_dist.self_s", "diophantine.min_odd_dist", "self_s", "s"),
    ("diophantine.odd_odd_stream.self_s", "diophantine.odd_odd_stream", "self_s", "s"),
    ("diophantine.badly_approx_profile.self_s", "diophantine.badly_approx_profile", "self_s", "s"),
    ("contfrac.enclosure.calls", "contfrac.enclosure", "calls", "count"),
    ("contfrac.enclosure.self_s", "contfrac.enclosure", "self_s", "s"),
    ("contfrac.enclosure.bits_max", "contfrac.enclosure", "bits_max", "bits"),
    ("contfrac.expand.self_s", "contfrac.expand", "self_s", "s"),
    ("contfrac.check_bounds.self_s", "contfrac.check_bounds", "self_s", "s"),
    ("contfrac.best_approx_check.self_s", "contfrac.best_approx_check", "self_s", "s"),
    ("alpha_factory.construct.calls", "alpha_factory.construct", "calls", "count"),
    ("alpha_factory.construct.self_s", "alpha_factory.construct", "self_s", "s"),
    ("rates.calls", "rates", "calls", "count"),
    ("rates.self_s", "rates", "self_s", "s"),
    ("phs.FundamentalMatrix.call.calls", "phs.FundamentalMatrix.call", "calls", "count"),
    ("phs.FundamentalMatrix.call.self_s", "phs.FundamentalMatrix.call", "self_s", "s"),
    ("phs.FundamentalMatrix.init.calls", "phs.FundamentalMatrix.init", "calls", "count"),
    ("phs.FundamentalMatrix.init.self_s", "phs.FundamentalMatrix.init", "self_s", "s"),
    ("phs.resolvent_solve.calls", "phs.resolvent_solve", "calls", "count"),
    ("phs.resolvent_solve.self_s", "phs.resolvent_solve", "self_s", "s"),
    ("phs.resolvent_solve.nodes_sum", "phs.resolvent_solve", "nodes_sum", "count"),
    ("phs.stability_scan.self_s", "phs.stability_scan", "self_s", "s"),
    ("phs.char_constants.self_s", "phs.char_constants", "self_s", "s"),
    ("phs.check_characterisation.self_s", "phs.check_characterisation", "self_s", "s"),
]
PER_LAYER = {name: unit for name, _, _, unit in LAYER_FIELDS}
PER_LAYER["spectral.sup_cells"] = "count"
PER_LAYER["trace_overhead_ratio"] = "ratio"
PER_LAYER.update(QUALITY)

IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import phstab.contfrac, phstab.diophantine, phstab.alpha_factory, "
    "phstab.spectral, phstab.rates, phstab.phs"
)


class Deadline(BaseException):
    """Raised in the main thread when a job passes its deadline.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def env_stamp() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": affinity or os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "machine": platform.machine(),
    }


def _probe_once() -> float:
    from mpmath.libmp import from_float, from_int, mpf_cos, mpf_mul, round_nearest

    x, s = from_float(1.1), 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOP):
        mpf_cos(mpf_mul(x, from_int(i), 60), 53, round_nearest)
    for i in range(60 * PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def probe() -> float:
    """Fastest of two timings of the host-speed probe, in seconds."""
    return min(_probe_once(), _probe_once())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, jobs beyond) at the highest percentile that has
    at least 10 jobs beyond it; the maximum when there are 10 jobs or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 11, 0) if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


class Runner:
    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0  # job executions so far; the last one's id
        self.failed_runs: set = set()  # executions with at least one failure
        self.failures: dict[tuple[str, str], dict] = {}
        self.notes: dict[str, list[str]] = {}
        self.untraced_latencies: list[list[float]] = []  # scaled, per pass, in job order
        self.raw_latencies: list[list[float]] = []  # the same, unscaled
        self.reference: dict[str, object] = {}
        self.width = 0.0
        self.residual = 0.0

    def _fail(self, job, code: str, msg: str) -> None:
        known = job.known_defect if code == "deadline" else None
        entry = self.failures.setdefault(
            (job.id, code), {"kind": job.kind, "msg": msg, "count": 0, "known": known})
        entry["count"] += 1
        self.failed_runs.add(self.attempted)

    def run_job(self, job, check: bool, before: float):
        """Run one job under its deadline and inspect its result; returns
        (latency, host-speed scale, probe after the job, layer stats or
        None, whether the call completed). ``before`` is a probe taken
        right before the call."""
        from mpmath import iv, mp

        tr = self.tracer
        self.attempted += 1
        if tr is not None:
            tr.start_job(job.id)
        iv_prec, mp_prec = iv.prec, mp.prec
        status, result = "ok", None
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, job.deadline_s)
                result = job.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status = "deadline"
        except Exception as exc:  # a raising job is a failed job, not a crash
            status = "raised"
            self._fail(job, "raised", f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        stats = tr.end_job() if tr is not None else None
        after = probe()
        scale = PROBE_REF_S / min(before, after)
        if status == "deadline":
            # an abandoned call may have left the precision raised
            iv.prec, mp.prec = iv_prec, mp_prec
            self._fail(job, "deadline", f"abandoned after {job.deadline_s} s deadline")
        if status != "ok":
            return latency, scale, after, stats, False
        self._inspect(job, result, check)
        return latency, scale, after, stats, True

    def _inspect(self, job, result, check: bool) -> None:
        """Oracle checks on the first pass; a later pass that reproduces the
        first result exactly gets the same verdict."""
        fp = job.fingerprint(result)
        if not check:
            ref = self.reference.get(job.id)
            if ref is None or ref[0] != fp:
                self._fail(job, "nondeterministic", "result differs from the first pass")
                return
            failures = ref[1]
        else:
            try:
                ins = job.inspect(result)
            except Exception as exc:
                from workloads import Inspection

                ins = Inspection([("inspect_error", f"{type(exc).__name__}: {exc}")])
            self.reference[job.id] = (fp, ins.failures)
            if ins.notes:
                self.notes[job.id] = ins.notes
            self.width = max(self.width, ins.width)
            self.residual = max(self.residual, ins.residual)
            failures = ins.failures
        for code, msg in failures:
            self._fail(job, code, msg)

    def run_pass(self, check: bool):
        """Run every job once; returns (job time, scaled latency per job,
        layer stats). The job time is unscaled: it is what ``--seconds``
        caps."""
        from tracer import Stat

        latencies, scaled, totals = [], [], {}
        after = probe()
        for job in self.wl.jobs:
            # the probe after a job serves as the next job's probe before,
            # unless oracle checks ran in between
            before = probe() if check else after
            latency, scale, after, stats, completed = self.run_job(job, check, before)
            latencies.append(latency)
            scaled.append(latency * scale)
            if stats is not None:
                for name, st in stats.items():
                    tot = totals.setdefault(name, Stat())
                    if completed:
                        tot.merge(st)
                    else:  # only the precision reached counts for abandoned jobs
                        tot.bits_max = max(tot.bits_max, st.bits_max)
        if self.tracer is None:
            self.raw_latencies.append(latencies)
        # jobs run back to back; oracle checks between them are not job time
        return sum(latencies), scaled, totals

    def run_passes(self, passes: int, seconds: float, first_checked: bool):
        """``passes`` whole passes, but none that is expected to end past
        ``seconds`` of job time (the first pass always runs).

        Returns the fastest scaled latency of each job over the passes,
        the number of passes run and the per-pass layer stats. Scaling
        removes most of the host's speed states; what is left (a state
        change in the middle of a job, interference) only adds time, so a
        job's fastest pass is the steadiest estimate of its cost. The pass
        count is fixed so that two versions of the program are measured on
        the same number of samples.
        """
        best, totals = None, []
        used = 0.0
        while len(totals) < passes:
            if totals and used + used / len(totals) > seconds:
                break
            wall, lats, tot = self.run_pass(first_checked and best is None)
            best = lats if best is None else [min(a, b) for a, b in zip(best, lats)]
            if self.tracer is None:
                self.untraced_latencies.append(lats)
            totals.append(tot)
            used += wall
        return best, len(totals), totals


def measure_setup(name: str, seed: int):
    """Median over SETUP_REPEATS of (cold import of phstab in a child
    interpreter + input generation + warm-up in this process), each scaled
    to the reference host speed."""
    import workloads

    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                       check=True, timeout=120, cwd=str(ROOT))
        wl = workloads.BUILDERS[name](seed)
        wl.warmup()
        elapsed = time.perf_counter() - t0
        times.append(elapsed * PROBE_REF_S / min(before, probe()))
    return statistics.median(times), times, wl


def layer_metrics(totals: list[dict], wall_untraced: float, wall_traced: float) -> dict:
    """Counts from the first traced pass, self times from the fastest."""
    from tracer import Stat

    first = totals[0]
    out = {}
    for name, stat, fld, _ in LAYER_FIELDS:
        if fld == "self_s":
            out[name] = min(t.get(stat, Stat()).self_s for t in totals)
        else:
            out[name] = getattr(first.get(stat, Stat()), fld)
    up = first.get("intervals.unit_phase", Stat())
    out["spectral.sup_cells"] = up.direct_calls / 3
    out["trace_overhead_ratio"] = wall_traced / wall_untraced
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("growth", "sandwich", "tables", "resolvent"))
    ap.add_argument("--seed", type=int, default=None, help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0, help="cap on the job time of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEED if args.seed is None else args.seed

    if not (SRC / "phstab" / "__init__.py").is_file():
        print(f"error: phstab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phstab

    if Path(phstab.__file__).resolve().parent != SRC / "phstab":
        print(f"error: imported phstab from {phstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, leftover_wrappers

    signal.signal(signal.SIGALRM, _on_alarm)
    stamp = env_stamp()
    print(f"workload {args.workload}  seed {seed}{' (default)' if args.seed is None else ''}"
          f"  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(stamp, sort_keys=True))

    setup_s, setup_all, wl = measure_setup(args.workload, seed)
    print(f"jobs per pass {len(wl.jobs)}")
    print("inputs " + json.dumps(wl.shares, sort_keys=True))

    runner = Runner(wl)
    planned = max(1, wl.passes // 2) if args.trace else wl.passes
    if args.trace:
        best, passes, _ = runner.run_passes(planned, args.seconds / 2, first_checked=True)
        tr = Tracer()
        runner.tracer = tr
        with tr.installed():
            t_best, t_passes, totals = runner.run_passes(planned, args.seconds / 2, first_checked=False)
        runner.tracer = None
        leftovers = leftover_wrappers()
        if leftovers:
            print(f"error: tracer left wrappers installed: {leftovers}", file=sys.stderr)
            return 3
        calls_differ = [
            name for name, stat, fld, _ in LAYER_FIELDS if fld == "calls"
            and len({getattr(t.get(stat), "calls", 0) for t in totals}) > 1
        ]
        if calls_differ:
            print(f"note: call counts differ between traced passes: {calls_differ}")
    else:
        best, passes, _ = runner.run_passes(planned, args.seconds, first_checked=True)

    failed = len(runner.failed_runs)
    quality = {
        "fail_share": failed / runner.attempted,
        "bracket_rel_width_max": runner.width,
        "resolvent_residual_max": runner.residual,
    }
    tail_s, tail_pct, beyond = tail(best)
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unknown = [(jid, code) for (jid, code), f in runner.failures.items() if not f["known"]]

    print(f"passes {passes} untraced" + (f", {t_passes} traced" if args.trace else "")
          + f" of {planned} planned; setup repeats {[round(x, 4) for x in setup_all]}")
    if passes < planned or (args.trace and t_passes < planned):
        print(f"note: --seconds {args.seconds:g} cut the run short of {planned} passes; "
              "latencies are not comparable with full runs")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "job_tail_s":
            extra = f"  (p{tail_pct:.1f} of {len(best)} jobs, {beyond} beyond)"
        print(f"  {name:<24} {e2e[name]:.6g} {unit}{extra}")
    raw_best = [min(x) for x in zip(*runner.raw_latencies)]
    print(f"  (times scaled to the reference host speed, probe {PROBE_REF_S} s; unscaled "
          f"wall_s {sum(raw_best):.6g} s, job_p50_s {statistics.median(raw_best):.6g} s)")
    for name, unit in QUALITY.items():
        print(f"  {name:<24} {quality[name]:.6g} {unit}")
    for (jid, code), f in sorted(runner.failures.items(), key=lambda x: (bool(x[1]["known"]), x[0])):
        verdict = f"known defect: {f['known']}" if f["known"] else "UNEXPECTED"
        print(f"FAILED {jid} [{code}] x{f['count']}: {f['msg'][:240]} -- {verdict}")
    if runner.notes:
        n_notes = sum(len(v) for v in runner.notes.values())
        print(f"NOTE {len(runner.notes)} jobs, {n_notes} findings of a known defect that "
              "the oracles tolerate (not failures):")
        for jid, notes in sorted(runner.notes.items()):
            for note in notes:
                print(f"  NOTE {jid}: {note[:240]}")

    if args.trace:
        metrics = layer_metrics(totals, sum(best), sum(t_best))
        metrics.update(quality)
        units = PER_LAYER
        for name in PER_LAYER:
            print(f"  {name:<44} {metrics[name]:.6g} {units[name]}")
    else:
        metrics, units = e2e, END_TO_END

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if args.trace:
        tr.write_spans(OUT / f"{stem}.spans.jsonl")
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "env": stamp, "inputs": wl.shares, "passes": passes,
        "job_tail_percentile": tail_pct, "jobs_timed": len(best),
        "job_best_s": dict(zip((j.id for j in wl.jobs), best)),
        "pass_latencies_s": runner.untraced_latencies,
        "raw_pass_latencies_s": runner.raw_latencies,
        "probe_ref_s": PROBE_REF_S,
        "end_to_end": e2e, "quality": quality,
        "per_layer": metrics if args.trace else None,
        "failures": [{"job": jid, "code": code, **f} for (jid, code), f in sorted(runner.failures.items())],
        "notes": runner.notes, "passes_planned": planned,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": not unknown,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
