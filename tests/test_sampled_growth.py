"""Sampled robustness sweep (opt-in, ``pytest -m slow``).

Twenty alphas drawn as random 256-bit decimal literals in (1, 2); each gets
the quadratic-growth slope check in the style of acceptance criterion 5,
but with a relaxed ceiling: the fit can legitimately sit above 2 when an
unusually good rational approximation lands inside the eta window, so
slopes above 2.3 are flagged and reported rather than failed. A curve can
also be flat on the window (its sup sits at a resonance below eta = 10);
its fitted slope is then rounding noise of either sign, so the slope must
be positive only where m_lower rises over the window.
"""

import random

import numpy as np
import pytest

from phstab import contfrac as cf
from phstab import spectral as sp

_N_SAMPLES = 20
_ETAS = [10.0, 100.0, 1000.0]
_SLOPE_CEILING = 2.3


def _random_alpha(rng: random.Random) -> cf.DecimalLiteral:
    digits = "1." + "".join(rng.choice("0123456789") for _ in range(80))
    return cf.DecimalLiteral(digits=digits, bits=256)


@pytest.mark.slow
def test_sampled_quadratic_growth_slopes():
    rng = random.Random(20260826)
    flagged = []
    for i in range(_N_SAMPLES):
        alpha = _random_alpha(rng)
        curve = sp.growth_curve(alpha, _ETAS, tol=1e-2)
        lows = [p.m_lower for p in curve.points]
        mids = [0.5 * (p.m_lower + p.m_upper) for p in curve.points]
        slope = float(np.polyfit(np.log(_ETAS), np.log(mids), 1)[0])
        assert all(b >= a for a, b in zip(lows, lows[1:]))
        assert np.isfinite(slope)
        if lows[-1] > lows[0]:
            assert slope > 0
        assert all(m >= 1.0 for m in mids)  # ||T_0^{-1}|| = 1 is a floor
        line = f"sample {i:2d}: alpha={alpha.digits[:12]}... slope={slope:.3f}"
        if slope > _SLOPE_CEILING:
            flagged.append(line)
            line += "  [FLAGGED > 2.3]"
        print(line)
    print(f"{len(flagged)}/{_N_SAMPLES} samples flagged above slope "
          f"{_SLOPE_CEILING}")
    for line in flagged:
        print("  " + line)
