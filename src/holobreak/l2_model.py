"""Half-line models of the transform pair.

Functions live in weighted spaces on (0, inf) or (0, inf)^2, carrying their
weight exponents with them.  The multiplication operator `phi_apply` maps a
one-variable function to two variables; `rchat_apply` integrates back down
along the anti-diagonal segments x + y = z.  In the slanted coordinates
(x, y) = (z(1-v)/2, z(1+v)/2) the pair diagonalizes into a Jacobi
expansion along v, which is what the inversion series `invert_rchat`
sums.  `fourier_laplace` bridges to the half-plane picture, and
`halfplane_norm_sq` computes the weighted Bergman norm on the other side,
over the unit disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (ArrayFormula, geometric_panels, integrate_adaptive, integrate_region,
                         node_values)
from .rc_transform import RCParams, c_ell
from .special_poly import DomainError, jacobi_poly, levels

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

_TOL = 1e-10  # order-doubling tolerance of the half-line integrals


def i_power(k: int) -> complex:
    """Exact integer power of the imaginary unit."""
    return _I_POWERS[k % 4]


@dataclass(frozen=True)
class L2Fn:
    """One-point callable, or a lift's array formula (a
    `quadrature.ArrayFormula`), together with its declared weight exponents.

    weights has one entry for a half-line function (space with measure
    x^(1-lam) dx) and two for a quarter-plane function (product measure
    x^(1-lam1) y^(1-lam2) dx dy).

    `fourier_laplace` and `weighted_norm_sq` also read the declared weight
    lam as the function's edge exponent x^(lam-1): each folds that power
    into a Gauss rule (the first panel, the Laguerre axis), which fits a
    lift or a K-type of that weight.  A function of the space with another
    edge raises "did not converge" in both: e^(-x) declared at lam = 3/2
    leaves x^(-1/2) on the edge.
    """

    func: object
    weights: tuple

    def __call__(self, *args):
        return self.func(*args)

    @property
    def arity(self) -> int:
        return len(self.weights)


def l2fn(func, *weights) -> L2Fn:
    if len(weights) not in (1, 2):
        raise DomainError("l2fn takes one or two weight exponents")
    return L2Fn(func, tuple(weights))


def _grid(f):
    """Array form of a function, bare or in an L2Fn (see
    `quadrature.node_values`)."""
    return node_values(f.func if isinstance(f, L2Fn) else f)


# ---------------------------------------------------------------------------
# slanted coordinates


def weight_M(params, z, v):
    """Jacobian-weight factor 2^(a+b) z^(ell+1) (1-v)^(-a) (1+v)^(-b) of the
    slanted coordinates, with (a, b) the shifted weights (alpha, beta)."""
    if not z > 0:
        raise DomainError("weight_M needs z > 0")
    if not -1 <= v <= 1:
        raise DomainError("weight_M needs v in [-1, 1]")
    a = float(params.alpha)
    b = float(params.beta)
    if v == 1 and a > 0:
        raise DomainError("weight_M has a pole at v = 1 for alpha > 0")
    if v == -1 and b > 0:
        raise DomainError("weight_M has a pole at v = -1 for beta > 0")
    return (
        2.0 ** (a + b)
        * float(z) ** (params.ell + 1)
        * (1.0 - v) ** (-a)
        * (1.0 + v) ** (-b)
    )


# ---------------------------------------------------------------------------
# the multiplication operator and its partner


def phi_apply(params, h) -> L2Fn:
    """Lift a half-line function to the quarter plane:

        (x, y) |-> x^a y^b (x+y)^(-(lam1+lam2+ell-1)) P(v(x,y)) h(x+y)

    with P the degree-ell Jacobi polynomial for (a, b) = (alpha, beta) and
    v(x, y) = (y-x)/(x+y).  Scales half-line norms by c_ell.  The lift is
    one `ArrayFormula`, evaluated on whole node arrays.
    """
    if isinstance(h, L2Fn) and h.weights != (params.lam3,):
        raise DomainError(f"phi_apply needs a function of declared weight {params.lam3}")
    h_values = _grid(h)
    a = float(params.alpha)
    b = float(params.beta)
    drop = float(params.lam1 + params.lam2 + params.ell - 1)
    poly = jacobi_poly(params.ell, params.alpha, params.beta).as_float()

    def lifted(x, y):
        z = x + y
        return x**a * y**b * z**-drop * poly((y - x) / z) * h_values(z)

    return L2Fn(ArrayFormula(lifted), (params.lam1, params.lam2))


def rchat_apply(params, F, z, method: str = "legendre"):
    """Integrate a quarter-plane function down to one variable:

        z^(ell+1)/(2 i^ell) * integral of P(v) F(z(1-v)/2, z(1+v)/2) over (-1, 1).

    method "legendre" integrates the product directly; "jacobi" folds the
    endpoint factors (1-v)^alpha (1+v)^beta into the quadrature weight,
    which is exact when F is a lift from phi_apply; "legendre" folds (0, 0),
    whose factors are exactly 1.  Raises if the adaptive quadrature does not
    converge.
    """
    if isinstance(z, complex) or not z > 0:
        raise DomainError(f"rchat_apply needs a real z > 0, got {z!r}")
    if method == "legendre":
        spec, a, b = ("legendre", -1.0, 1.0), 0.0, 0.0
    elif method == "jacobi":
        a, b = float(params.alpha), float(params.beta)
        spec = ("jacobi", a, b)
    else:
        raise DomainError(f"unknown rchat_apply method {method!r}")
    values = _grid(F)
    poly = jacobi_poly(params.ell, params.alpha, params.beta).as_float()

    def integrand(v):
        x, y = z * (1 - v) / 2, z * (1 + v) / 2
        return poly(v) * values(x, y) * (1 - v) ** -a * (1 + v) ** -b

    res = integrate_adaptive(integrand, spec, tol=_TOL)
    return float(z) ** (params.ell + 1) / 2 * i_power(-params.ell) * res.value


def invert_rchat(lam1, lam2, components, L=None) -> L2Fn:
    """Reassemble a quarter-plane function from its one-variable pieces:
    the sum over ell of (i^ell / c_ell) times the lift of components[ell],
    truncated at L when given (see `special_poly.levels`); like each lift,
    the sum is an `ArrayFormula`, and with no level left it is zero on
    every grid."""
    lifts = []
    for ell, comp in levels(components, L):
        p = RCParams(lam1, lam2, ell)
        weight = i_power(ell) / complex(c_ell(lam1, lam2, ell))
        # a component of any declared weight lifts, as an array formula
        lifts.append((weight, phi_apply(p, ArrayFormula(_grid(comp))).func.grid))

    def reassembled(x, y):
        zero = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
        return sum((w * g(x, y) for w, g in lifts), zero)

    return L2Fn(ArrayFormula(reassembled), (lam1, lam2))


# ---------------------------------------------------------------------------
# norms and inner products


def _weighted_integral(values, weights):
    """Integral of values(*xs), an array integrand, against the product of
    x^(1-lam) dx over the axes, one per weight, through scaled Laguerre
    rules with the weight x^(lam-1) e^(-2x): the integrand puts back the
    unfolding factor x^(2-2 lam) e^(2x) on each axis.  Deep nodes can
    overflow that factor although the weighted integrand there is
    negligible for anything of finite norm, so a node whose factor is not
    finite contributes exactly 0.  Raises DomainError when the quadrature
    does not converge."""
    expos = [2.0 - 2.0 * float(lam) for lam in weights]

    def g(*xs):
        with np.errstate(over="ignore", invalid="ignore"):
            unfold = np.exp(2 * sum(xs))
            for x, e in zip(xs, expos):
                unfold = unfold * x**e
            return np.where(np.isfinite(unfold), values(*xs) * unfold, 0.0)

    axes = [("laguerre", float(lam) - 1, 2.0) for lam in weights]
    if len(axes) == 1:
        return integrate_adaptive(g, axes[0], tol=_TOL).value
    return integrate_region(g, axes, tol=_TOL).value


def weighted_norm_sq(f: L2Fn) -> float:
    """Squared norm of a declared-weight function by adaptive quadrature
    with the weight folded into a scaled Laguerre rule.  Raises DomainError
    when the quadrature does not converge."""
    if not isinstance(f, L2Fn):
        raise DomainError("weighted_norm_sq needs a declared-weight function")
    values = _grid(f)
    return float(_weighted_integral(lambda *xs: np.abs(values(*xs)) ** 2, f.weights))


def weighted_inner(f: L2Fn, g: L2Fn):
    """Weighted inner product <f, g>, conjugate-linear in g; both arguments
    must declare the same weights.  Raises DomainError when the quadrature
    does not converge."""
    if not isinstance(f, L2Fn) or not isinstance(g, L2Fn):
        raise DomainError("weighted_inner needs declared-weight functions")
    if f.weights != g.weights:
        raise DomainError("weighted_inner needs matching weights")
    fv, gv = _grid(f), _grid(g)
    return _weighted_integral(
        lambda *xs: fv(*xs) * np.conj(gv(*xs).astype(complex)), f.weights
    )


# ---------------------------------------------------------------------------
# Fourier-Laplace bridge


def fourier_laplace(F, zeta):
    """Boundary transform integral of F(x) e^(i zeta x) over (0, inf) for
    zeta in the upper half plane.

    The half line is truncated at 40 and split into geometrically growing
    panels, the smallest, (0, 1/64), at the origin; F must be negligible
    past 40.  A function of declared weight lam behaves like x^(lam-1) at
    0, so the first panel is the Gauss-Jacobi axis
    ("jacobi", 0, lam - 1, 0, 1/64), whose rule weight is x^(lam-1)
    itself, and the integrand there is F(x) x^(1-lam) e^(i zeta x); a bare
    callable reads the exponent lam - 1 as 0, a Legendre panel.  The other
    panels are plain Legendre.  Raises DomainError for a declared weight
    lam <= 0, and when either part does not converge.
    """
    if complex(zeta).imag <= 0:
        raise DomainError("fourier_laplace needs Im zeta > 0")
    expo = 0.0
    if isinstance(F, L2Fn):
        if F.arity != 1:
            raise DomainError("fourier_laplace needs a one-variable function")
        lam = float(F.weights[0])
        if not lam > 0:
            raise DomainError("fourier_laplace needs a declared weight lam > 0")
        expo = lam - 1
    values = _grid(F)
    panels = geometric_panels(0.0, 40.0, first=1.0 / 64.0)
    parts = [(lambda x: values(x) * x**-expo * np.exp(1j * zeta * x),
              ("jacobi", 0.0, expo, 0.0, panels[0][1])),
             (lambda x: values(x) * np.exp(1j * zeta * x), ("panels", panels[1:]))]
    return sum(integrate_region(g, [axis], tol=_TOL, start_order=16, max_order=128).value
               for g, axis in parts)


def halfplane_norm_sq(G, lam) -> float:
    """Squared norm of a half-plane function against the weight
    (Im zeta)^(lam-2), lam > 1, integrated over the unit disc.

    The Cayley map zeta = i(1 + w)/(1 - w) takes |w| < 1 onto the upper
    half plane, with Im zeta = (1 - |w|^2)/|1 - w|^2 and
    dzeta/dw = 2i/(1 - w)^2, so

        (Im zeta)^(lam-2) |dzeta/dw|^2 = 4 (1 - |w|^2)^(lam-2) |1 - w|^(-2 lam).

    With w = sqrt(t) e^(i theta) the area element is
    dA = r dr dtheta = dt dtheta / 2, hence

        ||G||^2 = 2 int_0^(2 pi) int_0^1 |G(zeta(w))|^2 |1 - w|^(-2 lam) (1 - t)^(lam-2) dt dtheta,

    an integral over a compact domain with no cut-off.  theta runs on the
    periodic rule and t on ("jacobi", lam - 2, 0, 0, 1), whose rule weight
    is (1 - t)^(lam-2) itself.  Within a few ulps of lam = 1 that rule has
    a node at t = 1 exactly; no periodic node sits at theta = 0, so the
    pole w = 1 of the Cayley map is never a node.  G(zeta(w)) (1 - w)^(-lam) is holomorphic on
    the disc for G in the weighted Bergman space, and a K-type
    (zeta - i)^k (zeta + i)^(-lam-k) becomes a multiple of w^k.  Raises
    DomainError, with the error estimate, when the integral does not
    converge."""
    if not float(lam) > 1:
        raise DomainError("halfplane_norm_sq needs lam > 1")
    values = _grid(G)
    lamf = float(lam)

    def density(theta, t):
        w = np.sqrt(t) * np.exp(1j * theta)
        return np.abs(values(1j * (1 + w) / (1 - w))) ** 2 * np.abs(1 - w) ** (-2 * lamf)

    axes = [("periodic",), ("jacobi", lamf - 2, 0.0, 0.0, 1.0)]
    return 2 * integrate_region(density, axes, tol=_TOL, start_order=8, max_order=64).value
