"""Symmetry-breaking and holographic transforms with verification tooling.

The package implements two families of intertwining transforms between
weighted holomorphic function spaces and their companion L2 models: the
bidifferential (Rankin-Cohen type) transform on a product of half planes,
and the Juhl-type transform on tube domains over time-like cones.  Each
transform ships with its holographic (inverting) partner, closed-form
Plancherel constants, and exact or quadrature-backed verification of the
identities tying them together.

Layering, bottom up:

- ``special_poly``: gamma/beta scalars, Jacobi and Gegenbauer families.
- ``quadrature``: Gaussian rules and adaptive tensor integration of
  integrands that take numpy node arrays.
- ``term_algebra``: exact symbolic terms closed under the operations the
  transforms need (differentiate, restrict, evaluate, sl2 action).
- ``rc_transform``: the bidifferential transform, its line-integral inverse,
  spectral constants, inversion and zero classification.
- ``l2_model``: the same story conjugated to L2 on half lines.
- ``juhl``: the cone analogue in n variables, Bernstein-Sato identity,
  kernel characterizations, holographic integral.
- ``cli``: the ``holobreak`` command (``verify`` suites and ``eval``).
"""

from . import juhl, l2_model, quadrature, rc_transform, special_poly, term_algebra

__all__ = [
    "special_poly",
    "quadrature",
    "term_algebra",
    "rc_transform",
    "l2_model",
    "juhl",
    "cli",
]

__version__ = "0.1.0"
