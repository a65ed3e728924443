"""Certified quantitative semi-uniform stability data for 1-D
port-Hamiltonian systems.

Layers:

* :mod:`phstab.contfrac` — arbitrary-precision continued fractions:
  expansion, convergents, classical error bounds.
* :mod:`phstab.diophantine` — odd/odd approximants, minimal odd
  distances, approximation profiles.
* :mod:`phstab.alpha_factory` — construction of irrational alpha
  realizing a prescribed decay target.
* :mod:`phstab.spectral` — the 2x2 boundary matrix family, certified
  infima of the resonance function h, growth curves m_alpha, and the
  odd/odd sandwich.
* :mod:`phstab.rates` — growth-to-decay rate calculus (M_log,
  generalized inverses, positive-increase evidence).
* :mod:`phstab.phs` — general 1-D port-Hamiltonian systems: fundamental
  and boundary matrices, resolvent solves, characterisation constants.
* :mod:`phstab.cli` — command-line interface.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
