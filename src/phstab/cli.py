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
error.  The environment variable ``PHSTAB_BITS`` sets the default bit
budget for precision-bounded operations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import scipy

from . import __version__
from .errors import PhstabError, ValidationError, VerificationFailed
from . import contfrac, diophantine, alpha_factory, spectral, rates, phs

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2


def _default_bits() -> int:
    text = os.environ.get("PHSTAB_BITS", "128")
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"PHSTAB_BITS={text!r} is not an integer") from None


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


def _alpha_from_args(args: argparse.Namespace) -> contfrac.IrrationalSpec:
    if args.surd is not None:
        return contfrac.QuadraticSurd(D=args.surd, p=args.surd_p, q=args.surd_q)
    if args.quotients is not None:
        return contfrac.ExplicitQuotients(
            a=tuple(int(x) for x in args.quotients.split(","))
        )
    if args.decimal is not None:
        return contfrac.DecimalLiteral(digits=args.decimal, bits=args.bits)
    return contfrac.spec_from_json(Path(args.alpha_json).read_text())


def _fraction(text: str) -> Fraction:
    """An exact rational from a decimal ("0.1" is 1/10) or "n/d" string."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite rational number") from None


def _write_output(text: str, out: str | None) -> list[str]:
    if out is None:
        sys.stdout.write(text)
        return []
    Path(out).write_text(text)
    return [out]


def _write_manifest(args: argparse.Namespace, outputs: list[str],
                    **extra) -> None:
    target = getattr(args, "manifest", None)
    if target is None:
        if not outputs:
            return
        target = outputs[0] + ".manifest.json"
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest") and not callable(v)
    }
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "bits_default": _default_bits(),
        "versions": {
            "phstab": __version__,
            "mpmath": mpmath.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": outputs,
        **extra,
    }
    Path(target).write_text(json.dumps(manifest, indent=2, default=str) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cf(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    table = contfrac.expand(alpha, args.terms)
    identity_ok = table.check_identity()
    # the two-sided bound lemma assumes an infinite expansion; a terminated
    # table is rational and only the exact recurrence identities apply
    report = (
        contfrac.check_bounds(table)
        if len(table) >= 2 and not table.terminated
        else []
    )
    outputs = _write_output(table.to_csv(), args.out)
    _write_manifest(args, outputs)
    if table.terminated:
        print(f"# terminated after {len(table.quotients)} quotients (rational)",
              file=sys.stderr)
    if not identity_ok:
        print("# convergent identity p_n q_{n+1} - p_{n+1} q_n = (-1)^{n+1} "
              "violated", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    bad = [r for r in report if not r.passed]
    if bad:
        print(f"# convergent bounds violated at indices "
              f"{[r.n for r in bad]}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    # alpha_factory raises ValueError only for inputs it rejects
    try:
        if args.exp is not None:
            target: alpha_factory.DecayTarget = alpha_factory.ExpDecay(beta=args.exp)
        elif args.powerlog is not None:
            p, s = args.powerlog
            target = alpha_factory.PowerLog(p=p, s=s)
        else:
            target = alpha_factory.target_from_json(Path(args.table).read_text())
        target.validate()
        ca = alpha_factory.construct(target, bit_budget=args.bits)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    outputs = _write_output(ca.table.to_csv(), args.out)
    header = ca.header_json()
    if args.out is not None:
        hpath = args.out + ".header.json"
        Path(hpath).write_text(header)
        outputs.append(hpath)
    else:
        sys.stdout.write(header + "\n")
    _write_manifest(args, outputs)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    etas = [float(x) for x in args.etas.split(",")]
    curve = spectral.growth_curve(alpha, etas, tol=args.tol, bits=args.bits)
    outputs = _write_output(curve.to_csv(), args.out)
    parked = [p.eta for p in curve.points if p.upper_parked]
    if parked:
        print(f"# warning: m_upper at eta {parked} comes from cells parked at "
              f"the subdivision floor; it may sit more than tol above m_lower",
              file=sys.stderr)
    _write_manifest(args, outputs, parked_etas=parked)
    return EXIT_OK


def cmd_rates(args: argparse.Namespace) -> int:
    rows = [ln.split(",") for ln in
            Path(args.curve).read_text().strip().splitlines()[1:]]
    pts = [spectral.GrowthPoint(eta=float(r[0]), m_lower=float(r[1]),
                                m_upper=float(r[2]), witness=0.0)
           for r in rows]
    curve = spectral.GrowthCurve(alpha_json="", tol=0.0, bits=0,
                                 points=tuple(pts))
    fn = rates.from_growth_curve(curve, which=args.which)
    ts = [float(x) for x in args.times.split(",")]
    cert = None
    if args.certificate is not None:
        obj = json.loads(Path(args.certificate).read_text())
        cert = rates.PositiveIncreaseCertificate(
            alpha_hat=obj["alpha_hat"], c=obj["c"],
            lambda_grid=tuple(obj["lambda_grid"]),
            t_grid=tuple(obj["t_grid"]), label=obj.get("label", ""))
    pred = rates.predict(fn, args.kind, ts, c=args.c, C=args.C,
                         certificate=cert)
    outputs = _write_output(pred.to_csv(), args.out)
    _write_manifest(args, outputs)
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cmd_sandwich(args: argparse.Namespace) -> int:
    alpha = _alpha_from_args(args)
    vs = [v for v in _parse_range(args.odd_v) if v % 2 == 1]
    if not vs:
        raise ValidationError("no odd v in the requested range")
    reports = spectral.sandwich_report(alpha, vs, tol=args.tol, bits=args.bits)
    outputs = _write_output(spectral.sandwich_to_csv(reports), args.out)
    _write_manifest(args, outputs)
    if not all(r.upper_ok for r in reports):
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_phs(args: argparse.Namespace) -> int:
    system = phs.phsystem_from_json(Path(args.config).read_text())
    lo, hi, n = (float(x) for x in args.t_grid.split(":"))
    grid = np.linspace(lo, hi, int(n))
    report = phs.stability_scan(system, grid)
    outputs = _write_output(report.to_csv(), args.out)
    consts = phs.char_constants(system, [grid[0], grid[len(grid) // 2],
                                         grid[-1]])
    summary = json.dumps({"scan": json.loads(report.to_json()),
                          "constants": json.loads(consts.to_json())},
                         indent=2)
    if args.out is not None:
        jpath = args.out + ".constants.json"
        Path(jpath).write_text(summary + "\n")
        outputs.append(jpath)
    else:
        sys.stdout.write(summary + "\n")
    _write_manifest(args, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_appendix() -> list[tuple[str, bool]]:
    results = []
    for name, spec in (("sqrt2", contfrac.SQRT2), ("golden", contfrac.GOLDEN)):
        table = contfrac.expand(spec, 50)
        try:
            ok = table.check_identity() and all(
                r.passed for r in contfrac.check_bounds(table))
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
    import math
    system = phs.universal_example(math.sqrt(2))
    ts = np.linspace(0.0, 100.0, 512)
    dets = np.linalg.det(phs.boundary_matrices(system, ts))
    worst = max(
        abs(d - np.conj(phs.det_closed_form(math.sqrt(2), float(t))))
        for t, d in zip(ts, dets)
    )
    sol = phs.resolvent_solve(system, 10.0,
                              lambda xs: np.ones((len(xs), 2)), nodes=4096,
                              auto_refine=False)
    return [("boundary determinant closed form", worst <= 1e-12),
            ("resolvent residuals <= 1e-8", sol.residual <= 1e-8)]


_SUITES = {"appendix": _suite_appendix, "rates": _suite_rates,
           "phs": _suite_phs}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        if name not in _SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; choose from {sorted(_SUITES)} or 'all'"
            )
        for label, ok in _SUITES[name]():
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {label}")
            failed = failed or not ok
    _write_manifest(args, [])
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
        p.add_argument("--bits", type=int, default=_default_bits(),
                       help="bit budget (default from PHSTAB_BITS or 128)")

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
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except PhstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
