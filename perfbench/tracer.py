"""Layer tracing from outside the program.

``Tracer.install`` replaces public phstab names where callers look them
up (module globals, including ``from x import y`` aliases in other phstab
modules, class attributes, and mpmath's ``iv.cos``/``iv.sin``) with
wrappers that record calls and time; ``Tracer.uninstall`` puts every
original back. Nothing inside ``src/`` is edited.

Every wrapped call pushes a frame on one stack, so a frame's self time is
its duration minus the time covered by wrapped children. Boundaries marked
``span`` also append a span record (name, start, end, parent, job), kept in
memory and written out at the end of the run; the hot ones (interval trig,
phase evaluation, point evaluations, enclosures, fundamental-matrix calls)
only keep counts and summed time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from mpmath import iv

from phstab import alpha_factory, contfrac, diophantine, intervals, phs, rates
from phstab import spectral

PHSTAB_MODULES = (intervals, contfrac, diophantine, alpha_factory, spectral, rates, phs)

_RATES_FUNCS = tuple(
    n for n in rates.__all__ if callable(getattr(rates, n)) and not isinstance(getattr(rates, n), type)
)


def _bits_arg(args, kw, pos):
    bits = kw.get("bits", args[pos] if len(args) > pos else None)
    return int(bits) if bits is not None else 0


# (stat name, owner kind, owner, attribute, keep spans?). Owner kind
# "global": a module-level function, patched in every phstab module that
# binds the same object; "attr": a class or object attribute.
def _targets():
    t = [
        ("intervals.iv_trig", "attr", iv, "cos", False),
        ("intervals.iv_trig", "attr", iv, "sin", False),
        ("intervals.unit_phase", "global", intervals, "unit_phase", False),
        ("intervals.workprec", "global", intervals, "workprec", False),
        ("spectral.phases", "attr", spectral.HEvaluator, "phases", False),
        ("spectral.inv_norm_iv", "attr", spectral.HEvaluator, "inv_norm_iv", False),
        ("spectral.growth_curve", "global", spectral, "growth_curve", True),
        ("spectral.inf_h_interval", "global", spectral, "inf_h_interval", True),
        ("spectral.sandwich_report", "global", spectral, "sandwich_report", True),
        ("spectral.g_at_witness", "global", spectral, "g_at_witness", True),
        ("diophantine.min_odd_dist", "global", diophantine, "min_odd_dist", True),
        ("diophantine.odd_odd_stream", "global", diophantine, "odd_odd_stream", True),
        ("diophantine.badly_approx_profile", "global", diophantine, "badly_approx_profile", True),
        ("contfrac.expand", "global", contfrac, "expand", True),
        ("contfrac.check_bounds", "global", contfrac, "check_bounds", True),
        ("contfrac.best_approx_check", "global", contfrac, "best_approx_check", True),
        ("alpha_factory.construct", "global", alpha_factory, "construct", True),
        ("phs.FundamentalMatrix.call", "attr", phs.FundamentalMatrix, "__call__", False),
        ("phs.FundamentalMatrix.init", "attr", phs.FundamentalMatrix, "__init__", False),
        ("phs.resolvent_solve", "global", phs, "resolvent_solve", True),
        ("phs.stability_scan", "global", phs, "stability_scan", True),
        ("phs.char_constants", "global", phs, "char_constants", True),
        ("phs.check_characterisation", "global", phs, "check_characterisation", True),
    ]
    for cls in (contfrac.QuadraticSurd, contfrac.ExplicitQuotients,
                contfrac.RuleQuotients, contfrac.DecimalLiteral):
        t.append(("contfrac.enclosure", "attr", cls, "enclosure", False))
    for name in _RATES_FUNCS:
        t.append(("rates", "global", rates, name, True))
    return t


class Stat:
    __slots__ = ("calls", "self_s", "bits_max", "nodes_sum", "direct_calls")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.bits_max = 0
        self.nodes_sum = 0
        self.direct_calls = 0

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.bits_max = max(self.bits_max, other.bits_max)
        self.nodes_sum += other.nodes_sum
        self.direct_calls += other.direct_calls


class Tracer:
    """Per-job counters, a frame stack and an in-memory span list."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child_seconds, span_id]
        self.job_stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.job_id = None
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)
        self._next_span = 0

    # -- wrapping ---------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.job_stats.get(name)
        if st is None:
            st = self.job_stats[name] = Stat()
        return st

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        stack = self.stack

        def wrapper(*args, **kw):
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                if parent is not None:
                    parent[1] += dt
                st = tracer._stat(name)
                st.calls += 1
                st.self_s += dt - frame[1]
                if span:
                    tracer.spans.append(
                        (span_id, name, t0, t0 + dt,
                         parent[2] if parent is not None else None, tracer.job_id)
                    )
            if name == "intervals.workprec":
                st.bits_max = max(st.bits_max, _bits_arg(args, kw, 0))
            elif name == "contfrac.enclosure":
                st.bits_max = max(st.bits_max, _bits_arg(args, kw, 1))
            elif name == "phs.resolvent_solve":
                st.nodes_sum += result.nodes
            elif name == "intervals.unit_phase" and (
                parent is None or parent[0] != "spectral.phases"
            ):
                st.direct_calls += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper._perfbench_wrapper = True
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, kind, owner, attr, span in _targets():
                original = getattr(owner, attr)
                if kind == "attr":
                    # class attributes are read from the class dict so that
                    # plain functions (not bound methods) get wrapped
                    if isinstance(owner, type):
                        original = owner.__dict__[attr]
                    wrapper = self._wrap(name, original, span)
                    self._patches.append((owner, attr, original, wrapper))
                    setattr(owner, attr, wrapper)
                    continue
                wrapper = self._wrap(name, original, span)
                for mod in PHSTAB_MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original, wrapper))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)
        self.stack.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- job bookkeeping --------------------------------------------------

    def start_job(self, job_id: str) -> None:
        self.stack.clear()
        self.job_stats = {}
        self.job_id = job_id

    def end_job(self) -> dict[str, Stat]:
        # A deadline can fire between a wrapper's push and pop; drop any
        # frames it left behind.
        self.stack.clear()
        stats, self.job_stats = self.job_stats, {}
        self.job_id = None
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "job": job}) + "\n")


def leftover_wrappers() -> list[str]:
    """Names in phstab modules, their classes and ``iv`` still bound to a
    tracer wrapper (empty after a clean uninstall)."""
    found = []
    owners = list(PHSTAB_MODULES) + [iv]
    for mod in PHSTAB_MODULES:
        owners += [v for v in vars(mod).values() if isinstance(v, type)]
    for owner in owners:
        try:
            items = list(vars(owner).items())
        except TypeError:
            continue
        for key, val in items:
            if getattr(val, "_perfbench_wrapper", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found
