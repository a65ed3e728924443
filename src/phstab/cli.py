"""Command-line entry point.

Subcommands wrap the library layers: ``cf`` (continued-fraction tables),
``construct`` (alpha from a decay target), ``growth`` (certified growth
curves), ``rates`` (decay predictions from a curve), ``sandwich``
(odd/odd sandwich reports), ``phs`` (stability scans and constants for a
system config), and ``verify`` (built-in verification suites).

Every run that writes an output file also writes a RunManifest JSON
recording the subcommand, full parameter set, bit policies, tolerances,
library versions, and output paths, sufficient to reproduce the run.

Exit codes: 0 success, 1 verification failure, 2 input/precondition
error.  ``--bits`` (default 128) is the bit budget of ``construct``; on
``cf``, ``growth`` and ``sandwich`` it is the guaranteed bits of a
``--decimal`` alpha.  ``rates``, ``phs`` and ``verify`` take no ``--bits``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from . import __version__
from .errors import PhstabError, ValidationError, VerificationFailed
from . import contfrac, diophantine, alpha_factory, spectral, rates, phs

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2


def _bits(text: str) -> int:
    """A bit count: an integer >= 1."""
    try:
        bits = int(text)
    except ValueError:
        bits = 0  # rejected below
    if bits < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return bits


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _add_alpha_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--surd", type=int, metavar="D",
                   help="alpha = (p + sqrt(D))/q (see --surd-p/--surd-q)")
    g.add_argument("--quotients", metavar="a0,a1,...",
                   help="explicit partial quotients")
    g.add_argument("--decimal", metavar="DIGITS",
                   help="decimal literal; pair with --bits for its guarantee")
    g.add_argument("--alpha-json", metavar="FILE",
                   help="tagged IrrationalSpec JSON file")
    p.add_argument("--surd-p", type=int, default=0)
    p.add_argument("--surd-q", type=int, default=1)
    p.add_argument("--bits", type=_bits, default=128,
                   help="the guaranteed bits of a --decimal literal (default 128)")


def _alpha_from_args(args: argparse.Namespace) -> contfrac.IrrationalSpec:
    # the spec constructors raise these only for inputs they reject
    try:
        if args.surd is not None:
            return contfrac.QuadraticSurd(D=args.surd, p=args.surd_p, q=args.surd_q)
        if args.quotients is not None:
            return contfrac.ExplicitQuotients(map(int, args.quotients.split(",")))
        if args.decimal is not None:
            return contfrac.DecimalLiteral(digits=args.decimal, bits=args.bits)
        return contfrac.spec_from_json(Path(args.alpha_json).read_text())
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"invalid alpha: {exc}") from None


def _parsed(flag: str, text: str, read):
    """read(text) for a list argument; a value it cannot read exits 2,
    naming the reader's reason."""
    try:
        return read(text)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{flag}: cannot read {text!r}: {exc}") from None


def _from_file(flag: str, path: str, read):
    """read(contents of path) for an input file; a file that read cannot
    take apart (a missing key or cell, a wrong type) exits 2."""
    text = Path(path).read_text()
    try:
        return read(text)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{flag} {path}: {type(exc).__name__}: {exc}") from None


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _grid(text: str) -> np.ndarray:
    """LO:HI:N as N >= 1 evenly spaced points, N an integer, LO and HI finite."""
    lo, hi, n = (float(x) for x in text.split(":"))
    if not n >= 1:
        raise ValueError("N must be at least 1")
    if not n.is_integer():
        raise ValueError(f"N must be an integer, not {n!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("LO and HI must be finite")
    return np.linspace(lo, hi, int(n))


def _fraction(text: str) -> Fraction:
    """An exact rational from a decimal ("0.1" is 1/10) or "n/d" string."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite rational number") from None


def _emit(args: argparse.Namespace, text: str,
          sidecar: tuple[str, str] | None = None, **extra) -> None:
    """Write a run's output: ``text`` to ``--out`` (stdout without it),
    then a ``sidecar = (suffix, body)`` to ``<out><suffix>`` (stdout, after
    the output, without ``--out``), its body ending in "\\n", then, with an
    ``--out`` or a ``--manifest``, the RunManifest: the subcommand, its
    parameters, the library versions, the files written and ``extra``."""
    parts = [(args.out, text)]
    if sidecar is not None:
        suffix, body = sidecar
        parts.append((None if args.out is None else args.out + suffix, body + "\n"))
    outputs = []
    for path, body in parts:
        if path is None:
            sys.stdout.write(body)
        else:
            Path(path).write_text(body)
            outputs.append(path)
    target = args.manifest
    if target is None:
        if not outputs:
            return
        target = outputs[0] + ".manifest.json"
    import scipy  # for its version only: a run without a manifest skips it

    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "manifest") and not callable(v)}
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "versions": {"phstab": __version__, "mpmath": mpmath.__version__,
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "outputs": outputs,
        **extra,
    }
    Path(target).write_text(json.dumps(manifest, indent=2, default=str) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cf(args: argparse.Namespace) -> int:
    if args.terms < 0:
        raise ValidationError(f"--terms {args.terms} is negative")
    alpha = _alpha_from_args(args)
    table = contfrac.expand(alpha, args.terms)
    # the two-sided bound lemma assumes an infinite expansion; a terminated
    # table is rational, and only the recurrence identities apply, which
    # the table holds by construction
    report = contfrac.check_bounds(table) if len(table) >= 2 and not table.terminated else []
    _emit(args, table.to_csv())
    if table.terminated:
        print(f"# terminated after {len(table.quotients)} quotients (rational)",
              file=sys.stderr)
    bad = [r for r in report if not r.passed]
    if bad:
        print(f"# convergent bounds violated at indices "
              f"{[r.n for r in bad]}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    if args.exp is not None:
        target: alpha_factory.DecayTarget = alpha_factory.ExpDecay(beta=args.exp)
    elif args.powerlog is not None:
        target = alpha_factory.PowerLog(*args.powerlog)
    else:
        target = _from_file("--table", args.table, alpha_factory.target_from_json)
    ca = alpha_factory.construct(target, bit_budget=args.bits)
    _emit(args, ca.table.to_csv(), (".header.json", ca.header_json()))
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    etas = _parsed("--etas", args.etas, _floats)
    curve = spectral.growth_curve(alpha, etas, tol=args.tol)
    parked = [p.eta for p in curve.points if p.upper_parked]
    _emit(args, curve.to_csv(), parked_etas=parked, loglog_slope=_loglog_slope(curve))
    if parked:
        print(f"# warning: m_upper at eta {parked} comes from cells parked at "
              f"the subdivision floor; it may sit more than tol above m_lower",
              file=sys.stderr)
    return EXIT_OK


def _loglog_slope(curve: spectral.GrowthCurve) -> float | None:
    """Least-squares slope of log m against log eta, m the bracket
    midpoints; None for fewer than 2 etas or a non-finite m_upper."""
    mids = [0.5 * (p.m_lower + p.m_upper) for p in curve.points]
    if len(mids) < 2 or not np.isfinite(mids).all():
        return None
    etas = [p.eta for p in curve.points]
    return float(np.polyfit(np.log(etas), np.log(mids), 1)[0])


def cmd_rates(args: argparse.Namespace) -> int:
    curve = _from_file("--curve", args.curve, spectral.GrowthCurve.from_csv)
    fn = rates.from_growth_curve(curve, which=args.which)
    ts = _parsed("--times", args.times, _floats)
    cert = None if args.certificate is None else _from_file(
        "--certificate", args.certificate, rates.PositiveIncreaseCertificate.from_json)
    pred = rates.predict(fn, args.kind, ts, c=args.c, C=args.C,
                         certificate=cert)
    _emit(args, pred.to_csv())
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cmd_sandwich(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    vs = [v for v in _parsed("--odd-v", args.odd_v, _parse_range) if v % 2 == 1]
    if not vs:
        raise ValidationError("no odd v in the requested range")
    reports = spectral.sandwich_report(alpha, vs, tol=args.tol)
    _emit(args, spectral.sandwich_to_csv(reports),
          ratio_span=[min(r.ratio_lo for r in reports), max(r.ratio_hi for r in reports)])
    return EXIT_OK if all(r.upper_ok for r in reports) else EXIT_VERIFY_FAIL


def cmd_phs(args: argparse.Namespace) -> int:
    system = phs.phsystem_from_json(Path(args.config).read_text())
    grid = _parsed("--t-grid", args.t_grid, _grid)
    report = phs.stability_scan(system, grid)
    _emit(args, report.to_csv(), (".constants.json", report.to_json()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_appendix() -> list[tuple[str, bool]]:
    results = []
    for name, spec in (("sqrt2", contfrac.SQRT2), ("golden", contfrac.GOLDEN)):
        table = contfrac.expand(spec, 50)
        try:
            ok = all(r.passed for r in contfrac.check_bounds(table))
        except PhstabError:
            ok = False
        results.append((f"appendix identities [{name}]", ok))
    for name, spec in (("sqrt2", contfrac.SQRT2), ("golden", contfrac.GOLDEN)):
        table = contfrac.expand(spec, 60)
        stream = diophantine.odd_odd_stream(table, count=15)
        ok = all(ap.err.upper < Fraction(2, ap.v**2) for ap in stream)
        results.append((f"odd/odd bound 2/v^2 [{name}]", ok))
    return results


def _suite_rates() -> list[tuple[str, bool]]:
    m = rates.power_fn(2)
    cert = rates.positive_increase_estimate(m, [2, 10, 100], [1, 10, 100])
    pred = rates.predict(m, "RSS-upper", [1e2, 1e4, 1e6], certificate=cert)
    ok1 = all(abs(b - t**-0.5) <= 1e-9 for t, b in pred.points)
    g = rates.power_log_fn(2, 2.1)
    gl = rates.m_log(g)
    ok2 = all(
        abs(gl(rates.invert(gl, y)) - y) <= 1e-6 * y for y in (1e2, 1e5, 1e8)
    )
    return [("RSS-upper 1/sqrt(t)", ok1), ("M_log round-trip", ok2)]


def _suite_phs() -> list[tuple[str, bool]]:
    system = phs.universal_example(math.sqrt(2))
    ts = np.linspace(0.0, 100.0, 512)
    dets = np.linalg.det(phs.boundary_matrices(system, ts))
    worst = max(
        abs(d - np.conj(phs.det_closed_form(math.sqrt(2), float(t))))
        for t, d in zip(ts, dets)
    )
    sol = phs.resolvent_solve(system, 10.0,
                              lambda xs: np.ones((len(xs), 2)), nodes=4096,
                              tol=math.inf)
    return [("boundary determinant closed form", worst <= 1e-12),
            ("resolvent residuals <= 1e-8", sol.residual <= 1e-8)]


_SUITES = {"appendix": _suite_appendix, "rates": _suite_rates,
           "phs": _suite_phs}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines, failed = [], False
    for name in names:
        if name not in _SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; choose from {sorted(_SUITES)} or 'all'"
            )
        for label, ok in _SUITES[name]():
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {label}\n")
            failed = failed or not ok
    _emit(args, "".join(lines))
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phstab",
        description="Certified stability data for 1-D port-Hamiltonian systems",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default <out>.manifest.json)")

    p = sub.add_parser("cf", help="continued-fraction convergent table")
    _add_alpha_flags(p)
    p.add_argument("--terms", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("construct", help="build alpha from a decay target")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exp", type=_fraction, metavar="BETA",
                   help="target f(t) = exp(-beta t)")
    g.add_argument("--powerlog", type=_fraction, nargs=2, metavar=("P", "S"),
                   help="target f(t) = t^-P (log(e+t))^-S")
    g.add_argument("--table", metavar="FILE", help="tabulated target JSON")
    p.add_argument("--bits", type=_bits, default=128,
                   help="the bit budget of the construction (default 128)")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("growth", help="certified growth curve m_alpha")
    _add_alpha_flags(p)
    p.add_argument("--etas", required=True, metavar="E1,E2,...")
    p.add_argument("--tol", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("rates", help="decay predictions from a growth curve")
    p.add_argument("--curve", required=True, help="growth CSV (eta,m_lower,m_upper)")
    p.add_argument("--kind", required=True,
                   choices=["BattyDuyckaerts", "RSS-upper", "LowerBound"])
    p.add_argument("--times", required=True, metavar="T1,T2,...")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--which", choices=["lower", "upper"], default="upper")
    p.add_argument("--certificate", default=None,
                   help="positive-increase certificate JSON (for RSS-upper)")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sandwich", help="odd/odd sandwich report")
    _add_alpha_flags(p)
    p.add_argument("--odd-v", required=True, metavar="LO..HI or list")
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("phs", help="stability scan of a system config")
    p.add_argument("--config", required=True, help="PHSystem JSON file")
    p.add_argument("--t-grid", required=True, metavar="LO:HI:N")
    common(p)
    p.set_defaults(func=cmd_phs)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", help="appendix | rates | phs | all")
    common(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 2 for a flag value it rejects, 0 after --help
        return exc.code
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except PhstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large to hold (a grid, a range of v)
        print(f"error: out of memory: {str(exc) or 'the input is too large'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
