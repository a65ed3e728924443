"""Decay-rate calculus: monotone growth functions, generalized inverses,
and the conversion of resolvent growth into semigroup decay predictions.

A growth function M maps frequency eta to the certified resolvent-norm
supremum over [-i eta, i eta].  Three rate formulas are supported:

* ``BattyDuyckaerts``: bound(t) = c / M_log^{-1}(t / c), where
  M_log(eta) = M(eta) (log(1 + M(eta)) + log(1 + eta)).
* ``RSS-upper``: bound(t) = C / M^{-1}(t); valid only when M is of
  positive increase, so a certificate that M meets is required.
* ``LowerBound``: bound(t) = c / M^{-1}(C t).

Generalized inverses follow the sup convention
inv(y) = sup { eta : fn(eta) <= y }, so fn(inv(y)) <= y with equality on
the range of fn.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import OutOfRange, ValidationError
from .spectral import GrowthCurve

__all__ = [
    "MonotoneFn",
    "DecayPrediction",
    "PositiveIncreaseCertificate",
    "PositiveIncreaseRefutation",
    "power_fn",
    "power_log_fn",
    "from_growth_curve",
    "m_log",
    "invert",
    "predict",
    "positive_increase_estimate",
]

_INV_RTOL = 1e-9
_DOMAIN_CAP = 1e300


@dataclass(frozen=True)
class MonotoneFn:
    """A positive, increasing function on [lo, hi] with a generalized inverse.

    ``hi`` may be ``math.inf`` for closed forms.  Curve-backed instances are
    immutable snapshots of their knots.
    """

    fn: Callable[[float], float]
    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not self.lo >= 0:
            raise ValidationError("domain start must be >= 0")
        if not self.hi > self.lo:
            raise ValidationError("domain must have positive length")

    def __call__(self, x: float) -> float:
        if x < self.lo or x > self.hi:
            raise ValidationError(
                f"argument {x} outside domain [{self.lo}, {self.hi}]"
            )
        return self.fn(x)


def power_fn(p: float) -> MonotoneFn:
    """M(eta) = eta**p on (0, inf)."""
    if p <= 0:
        raise ValidationError("exponent must be positive")
    return MonotoneFn(lambda x: x**p, lo=0.0)


def power_log_fn(p: float, s: float) -> MonotoneFn:
    """M(eta) = eta**p * (log eta)**s on [e, inf)."""
    if p <= 0 or s < 0:
        raise ValidationError("need p > 0 and s >= 0")
    return MonotoneFn(lambda x: x**p * math.log(x) ** s, lo=math.e)


def from_growth_curve(
    curve: GrowthCurve, which: str = "lower"
) -> MonotoneFn:
    """Wrap a certified growth curve as a monotone function.

    Interpolation is log-linear between knots; the domain is the knot
    range.  ``which`` selects the lower or upper certified value at each
    knot (the curve is monotone in eta either way).  An eta or a selected
    value that is not finite and positive (an upper bound from parked cells
    is inf), an eta that does not rise or a value that falls raises
    ValidationError naming its eta.
    """
    if which not in ("lower", "upper"):
        raise ValidationError("which must be 'lower' or 'upper'")
    pts = [
        (p.eta, p.m_lower if which == "lower" else p.m_upper)
        for p in curve.points
    ]
    if len(pts) < 2:
        raise ValidationError("curve needs at least two knots")
    for eta, m in pts:
        if not (math.isfinite(eta) and eta > 0):
            raise ValidationError(f"growth curve eta={eta!r} is not finite and positive")
        if not (math.isfinite(m) and m > 0):
            raise ValidationError(
                f"growth curve m_{which} at eta={eta!r} is {m!r}; "
                "interpolation needs finite positive knots"
            )
    for (e0, m0), (eta, m) in zip(pts, pts[1:]):
        if not eta > e0:
            raise ValidationError(
                f"growth curve eta={eta!r} does not rise above eta={e0!r} before it"
            )
        if not m >= m0:
            raise ValidationError(
                f"growth curve m_{which} at eta={eta!r} is {m!r}, "
                f"below {m0!r} at eta={e0!r}; m must not fall"
            )
    xs = [math.log(e) for e, _ in pts]
    ys = [math.log(m) for _, m in pts]

    def fn(x: float) -> float:
        lx = math.log(x)
        if lx <= xs[0]:
            return math.exp(ys[0])
        if lx >= xs[-1]:
            return math.exp(ys[-1])
        b = bisect_right(xs, lx)
        a = b - 1
        w = (lx - xs[a]) / (xs[b] - xs[a])
        return math.exp(ys[a] + w * (ys[b] - ys[a]))

    return MonotoneFn(fn, lo=pts[0][0], hi=pts[-1][0])


def m_log(fn: MonotoneFn) -> MonotoneFn:
    """M_log(eta) = M(eta) (log(1 + M(eta)) + log(1 + eta))."""

    def g(x: float) -> float:
        m = fn(x)
        return m * (math.log1p(m) + math.log1p(x))

    return MonotoneFn(g, lo=fn.lo, hi=fn.hi)


def invert(fn: MonotoneFn, y: float) -> float:
    """Generalized inverse sup { eta : fn(eta) <= y } by bisection, to
    relative width ``_INV_RTOL``.

    Raises OutOfRange when y < fn(lo), and ValidationError for a NaN y or
    an fn value past the float range (naming its eta).  Values above the
    range (for a bounded domain, y = inf included) clamp to the domain
    endpoint, per the sup convention.
    """
    if math.isnan(y):
        raise ValidationError("target y is nan; inverse undefined")

    def f(eta: float) -> float:
        try:
            return fn(eta)
        except OverflowError:
            raise ValidationError(f"fn({eta!r}) overflows while inverting y = {y!r}") from None

    lo = fn.lo
    f_lo = f(lo)
    if y < f_lo:
        raise OutOfRange(
            f"target {y} below fn({lo}) = {f_lo}; inverse undefined"
        )
    hi_cap = min(fn.hi, _DOMAIN_CAP)
    below, hi = lo, max(lo, 1.0)  # f(below) <= y is known
    while hi < hi_cap and (hi == below or f(hi) <= y):
        below, hi = hi, hi * 2
    if hi >= hi_cap and f(hi_cap) <= y:  # below the cap, f(hi) > y
        return hi_cap
    hi = min(hi, hi_cap)
    if 0.5 * (lo + hi) == below:  # the first midpoint (lo = 0) is known
        lo = below
    # invariant: fn(lo) <= y < fn(hi)
    while hi - lo > _INV_RTOL * max(abs(lo), 1e-300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) <= y:
            lo = mid
        else:
            hi = mid
    return lo


def _finite_real(x) -> bool:
    """x is an int or a finite float; a bool or a string is not."""
    return type(x) is int or isinstance(x, float) and math.isfinite(x)


def _check_grids(lambda_grid, t_grid) -> None:
    """ValidationError unless every entry is a finite number and every
    dilation factor lambda is >= 1."""
    bad = [x for x in (*lambda_grid, *t_grid) if not _finite_real(x)]
    if bad:
        raise ValidationError(f"grid entry {bad[0]!r} is not a finite number")
    if any(lam < 1 for lam in lambda_grid):
        raise ValidationError(f"dilation factor {min(lambda_grid)!r} is below 1")


@dataclass(frozen=True)
class PositiveIncreaseCertificate:
    """Evidence (not proof) that fn(lambda t)/fn(t) >= c lambda^alpha
    over the recorded finite grids. ``alpha_hat`` is finite and > 0, ``c``
    in (0, 1], the grids hold finite numbers and every lambda is >= 1;
    ValidationError otherwise."""

    alpha_hat: float
    c: float
    lambda_grid: tuple[float, ...]
    t_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (_finite_real(self.alpha_hat) and self.alpha_hat > 0):
            raise ValidationError(f"alpha_hat {self.alpha_hat!r} is not a finite number > 0")
        if not (_finite_real(self.c) and 0 < self.c <= 1):
            raise ValidationError(f"c {self.c!r} is not a finite number in (0, 1]")
        _check_grids(self.lambda_grid, self.t_grid)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "positive-increase-certificate",
                "alpha_hat": self.alpha_hat,
                "c": self.c,
                "lambda_grid": list(self.lambda_grid),
                "t_grid": list(self.t_grid),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> PositiveIncreaseCertificate:
        obj = json.loads(text)
        if obj["kind"] != "positive-increase-certificate":
            raise ValidationError(f"kind {obj['kind']!r} is not positive-increase-certificate")
        grids = obj["lambda_grid"], obj["t_grid"]
        if not all(isinstance(g, list) for g in grids):
            raise ValidationError("lambda_grid and t_grid must be JSON arrays")
        return cls(obj["alpha_hat"], obj["c"], *map(tuple, grids))


@dataclass(frozen=True)
class PositiveIncreaseRefutation:
    """Witness pairs where the dilation ratio stays near 1 for large
    lambda, refuting positive increase over the grid."""

    alpha_hat: float
    witnesses: tuple[tuple[float, float, float], ...]  # (lambda, t, ratio)


_ALPHA_MARGIN = 0.05


def _dilation_ratios(fn: MonotoneFn, lams, ts) -> list[tuple[float, float, float]]:
    """(lambda, t, fn(lambda t)/fn(t)) at the grid points with lambda > 1,
    t >= fn.lo and lambda t <= fn.hi, lambda outer and t inner (lambda = 1
    is met by every c <= 1 and states nothing); ValidationError if none,
    or naming (lambda, t) where the ratio is not finite and positive
    (fn(t) = 0, or an fn value past the float range)."""
    ratios = []
    for lam in lams:
        for t in ts:
            if lam > 1 and fn.lo <= t and lam * t <= fn.hi:
                try:
                    r = fn(lam * t) / fn(t)
                except (OverflowError, ZeroDivisionError):
                    r = math.nan
                if not (math.isfinite(r) and r > 0):
                    raise ValidationError(f"fn(lambda t)/fn(t) at (lambda, t) = ({lam!r}, {t!r}) "
                                          "is not a finite number > 0")
                ratios.append((lam, t, r))
    if not ratios:
        raise ValidationError("no grid point (lambda > 1, t) has t and lambda*t in fn's domain")
    return ratios


def positive_increase_estimate(
    fn: MonotoneFn,
    lambda_grid: Sequence[float],
    t_grid: Sequence[float],
) -> PositiveIncreaseCertificate | PositiveIncreaseRefutation:
    """Fit the largest alpha and c in (0, 1] with
    fn(lambda t)/fn(t) >= c lambda^alpha over the grids.

    The grids hold finite numbers, every lambda >= 1, and the fit reads
    the points of :func:`_dilation_ratios` (ValidationError otherwise).
    Returns a certificate when the fitted exponent clears a fixed margin,
    otherwise refutation evidence listing the flattest ratios at the
    largest lambdas.
    """
    _check_grids(lambda_grid, t_grid)
    lams = sorted(set(float(x) for x in lambda_grid))
    ts = sorted(set(float(x) for x in t_grid))
    ratios = _dilation_ratios(fn, lams, ts)
    # largest alpha satisfying r >= lambda^alpha pointwise, then c for margin
    alpha_hat = min(math.log(r) / math.log(lam) for lam, _, r in ratios)
    alpha_hat = max(alpha_hat, 0.0)
    if alpha_hat > _ALPHA_MARGIN:
        c = min(
            min(r / lam**alpha_hat for lam, _, r in ratios), 1.0
        )
        return PositiveIncreaseCertificate(
            alpha_hat=alpha_hat,
            c=c,
            lambda_grid=tuple(lams),
            t_grid=tuple(ts),
        )
    flat = sorted(
        (w for w in ratios if w[0] >= 10.0 and w[2] < 2.0),
        key=lambda w: (w[2], -w[0]),
    )
    if not flat:
        flat = sorted(ratios, key=lambda w: (w[2], -w[0]))
    return PositiveIncreaseRefutation(alpha_hat=alpha_hat, witnesses=tuple(flat[:8]))


_KINDS = ("BattyDuyckaerts", "RSS-upper", "LowerBound")

# relative slack of a certificate check: a fitted c lambda^alpha_hat
# meets its own ratios only up to a few roundings
_CERT_RTOL = 1e-12


def _check_certificate(fn: MonotoneFn, cert: PositiveIncreaseCertificate) -> None:
    """ValidationError unless fn(lambda t)/fn(t) >= c lambda^alpha_hat, up to
    the relative slack ``_CERT_RTOL``, at every point of
    :func:`_dilation_ratios` over the certificate's grids (naming the first
    that fails)."""
    for lam, t, ratio in _dilation_ratios(fn, cert.lambda_grid, cert.t_grid):
        try:
            want = cert.c * lam**cert.alpha_hat
        except OverflowError:  # past the float range: no finite ratio meets it
            want = math.inf
        if ratio < want * (1 - _CERT_RTOL):
            raise ValidationError(
                f"certificate fails at (lambda, t) = ({lam!r}, {t!r}): "
                f"fn(lambda t)/fn(t) = {ratio!r} < c lambda^alpha_hat = {want!r}"
            )


@dataclass(frozen=True)
class DecayPrediction:
    """(t, bound) pairs produced by one of the rate formulas.  Shape-only
    unless the caller supplies constants."""

    kind: str
    points: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        rows = [f"{t!r},{b!r},{self.kind}" for t, b in self.points]
        return "\n".join(["t,bound,kind", *rows]) + "\n"


def predict(
    fn: MonotoneFn,
    kind: str,
    t_list: Sequence[float],
    c: float = 1.0,
    C: float = 1.0,
    certificate: PositiveIncreaseCertificate | None = None,
) -> DecayPrediction:
    """Evaluate one rate formula at the given times.

    ``fn`` is the growth function M.  Constants default to 1 (the
    underlying theorems assert existence, not values), yielding
    shape-only predictions.  RSS-upper takes a positive-increase
    ``certificate`` and checks that ``fn`` meets it (ValidationError
    otherwise).
    """
    if kind not in _KINDS:
        raise ValidationError(f"kind must be one of {_KINDS}")
    if not all(math.isfinite(k) and k > 0 for k in (c, C)):
        raise ValidationError(f"constants must be finite and positive (c={c!r}, C={C!r})")
    ts = [float(t) for t in t_list]
    bad = [t for t in ts if not (math.isfinite(t) and t > 0)]
    if bad:
        raise ValidationError(f"times must be finite and positive, not {bad[0]!r}")
    if kind == "RSS-upper":
        if certificate is None or isinstance(
            certificate, PositiveIncreaseRefutation
        ):
            raise ValidationError(
                "RSS upper bound requires a positive-increase certificate"
            )
        _check_certificate(fn, certificate)
        pts = tuple((t, C / invert(fn, t)) for t in ts)
    elif kind == "BattyDuyckaerts":
        ml = m_log(fn)
        pts = tuple((t, c / invert(ml, t / c)) for t in ts)
    else:
        pts = tuple((t, c / invert(fn, C * t)) for t in ts)
    return DecayPrediction(kind=kind, points=pts)

