"""Rankin-Cohen symmetry breaking on pairs of half-plane weights.

The forward transform `rc_apply` differentiates a two-variable holomorphic
sum and restricts to the diagonal; it comes in three algebraically equal
routes that are cross-checked exactly.  The backward (holographic) transform
is the weighted segment integral `psi_quadrature`, with its lowest-weight
image available in closed form.  The constants `c_ell`, `r_ell`, `b_const`
tie the two directions together: composing forward after backward multiplies
by c_ell, the operator norm squared is r_ell * c_ell, and the inversion
series uses the weights 1/c_ell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .quadrature import integrate_adaptive, node_values
from .special_poly import (
    _LOG2,
    _LOG_PI,
    DomainError,
    PoleError,
    as_integer,
    beta,
    check_ell,
    complex_gamma,
    gamma_quotient,
    is_exact,
    jacobi_inflated,
    jacobi_variant,
    levels,
    log_gamma_quotient,
    pochhammer,
    reciprocal_gamma,
)
from .term_algebra import (
    HoloSum,
    apply_operator,
    base_poly,
    holo_sum,
    qqi,
    scale,
    term,
)

RC_ROUTES = ("coefficients", "inflated", "variant")


@dataclass(frozen=True)
class RCParams:
    """Weight pair and order of the symmetry-breaking operator.

    lam1, lam2 are the two input weights (exact rationals or complex),
    ell is the order; the output weight is lam3 = lam1 + lam2 + 2*ell.
    """

    lam1: object
    lam2: object
    ell: int

    def __post_init__(self):
        check_ell(self.ell)

    @property
    def lam3(self):
        return self.lam1 + self.lam2 + 2 * self.ell

    @property
    def alpha(self):
        return self.lam1 - 1

    @property
    def beta(self):
        return self.lam2 - 1


# ---------------------------------------------------------------------------
# forward transform


def _operator_coefficients(params: RCParams, route: str) -> MappingProxyType:
    """Read-only exponent -> coefficient map of the bidifferential operator:
    the key (i, j) stands for d1^i d2^j.

    Tables at exact weights are memoized in `_exact_table`; int and Fraction
    weights both give Fraction tables.  Float and complex weights are never
    cached: `RCParams(2.5, 3, 2)` equals and hashes as
    `RCParams(Fraction(5, 2), 3, 2)`, yet its table is float where the
    other's is exact, and a signed zero or nan weight would meet the same
    hazard."""
    if is_exact(params.lam1) and is_exact(params.lam2):
        return _exact_table(params, route)
    return _operator_table(params, route)


def _operator_table(params: RCParams, route: str) -> MappingProxyType:
    ell = params.ell
    if route == "coefficients":
        out = {}
        for j in range(ell + 1):
            c = (
                (-1) ** j
                * pochhammer(params.lam1 + ell - j, j)
                * pochhammer(params.lam2 + j, ell - j)
            )
            out[(ell - j, j)] = c / (math.factorial(j) * math.factorial(ell - j))
    elif route == "inflated":
        out = dict(jacobi_inflated(ell, params.alpha, params.beta).items())
    elif route == "variant":
        sign = (-1) ** ell
        poly = jacobi_variant(ell, params.alpha, 1 - params.lam3)
        out = {e: sign * c for e, c in poly.items()}
    else:
        raise DomainError(f"unknown rc_apply route {route!r}")
    return MappingProxyType(out)


# One exact-ladder benchmark repetition asks for 108 distinct (params, route)
# tables, 360 times in all.
_exact_table = functools.lru_cache(maxsize=256)(_operator_table)


def rc_apply(params: RCParams, f: HoloSum, route: str = "coefficients") -> HoloSum:
    """Apply the order-ell symmetry-breaking operator and restrict to the
    diagonal, turning a two-variable sum into a one-variable sum.

    All three routes build the same operator; "coefficients" writes the
    two-index coefficient sum directly, "inflated" and "variant" substitute
    the partial derivatives into the two bivariate Jacobi forms.  The
    operator and the restriction are one `apply_operator` call: on an exact
    input the routes read f's one shared derivative lattice, or, when a base
    of f vanishes on the diagonal, each call climbs a lattice of its own that
    drops what the restriction must kill.
    """
    return apply_operator(f, _operator_coefficients(params, route).items(), "diagonal")


# ---------------------------------------------------------------------------
# constants


def c_ell_status(lam1, lam2, ell: int):
    """Classify c_ell at exact parameters by counting simple pole orders.

    Returns ("nonzero", value), ("zero", 0), ("pole", None) or
    ("indeterminate", None); the last kind marks points where numerator and
    denominator singularities collide and the limit depends on the
    direction of approach.  Each weight is held as its integer numerator
    over its denominator, so every pole, zero and collision test is an
    integer test.  One Fraction is built, for a nonzero value when either
    weight is an integer; other nonzero values are float products of gamma
    values at the correctly rounded quotients.
    """
    check_ell(ell)
    if not (is_exact(lam1) and is_exact(lam2)):
        raise DomainError("c_ell_status needs exact rational weights")
    q1, q2 = lam1.denominator, lam2.denominator
    # n1 = lam1 + ell = m1 / q1 and n2 = m2 / q2, in lowest terms
    m1, m2 = lam1.numerator + ell * q1, lam2.numerator + ell * q2
    # d = lam1 + lam2 + ell - 1 = dn / q and t = d + ell = tn / q
    q = q1 * q2
    dn = lam1.numerator * q2 + lam2.numerator * q1 + (ell - 1) * q
    tn = dn + ell * q
    num_poles = (q1 == 1 and m1 <= 0) + (q2 == 1 and m2 <= 0)
    # d and t move together (both depend on lam1 + lam2 alone), and the
    # simple pole of 1/t at t = 0 always meets the zero of 1/Gamma(d) at
    # d = -ell, so 1/(t Gamma(d)) extends across t = 0 with a nonzero value;
    # the genuine zeros are the remaining nonpositive-integer points of d
    mid_zero = dn <= 0 and dn % q == 0 and tn != 0
    if num_poles and mid_zero:
        return ("indeterminate", None)
    if num_poles:
        return ("pole", None)
    if mid_zero:
        return ("zero", Fraction(0))
    if q1 == q2 == 1:
        d = m1 + m2 - ell - 1
        val = Fraction(
            math.factorial(m1 - 1) * math.factorial(m2 - 1),
            (d + ell) * math.factorial(d - 1) * math.factorial(ell),
        )
        return ("nonzero", val)
    if q1 == 1 or q2 == 1:
        # at an integer lam2, Gamma(n2) is a factorial and Gamma(n1) / Gamma(d) =
        # Gamma(n1) / Gamma(n1 + k), k = lam2 - 1, a Pochhammer quotient; or swapped
        (m, qm), mi = ((m1, q1), m2) if q2 == 1 else ((m2, q2), m1)
        k = mi - ell - 1
        steps = math.prod(range(m + min(k, 0) * qm, m + max(k, 0) * qm, qm))
        up, down = (qm ** k, steps) if k >= 0 else (steps, qm ** -k)
        return ("nonzero", Fraction(math.factorial(mi - 1) * up * q,
                                    tn * math.factorial(ell) * down))
    # int / int is correctly rounded, so each quotient is float() of the value
    return ("nonzero", _c_ell_value(m1 / q1, m2 / q2, dn / q, tn / q, ell))


def _c_ell_value(n1, n2, d, t, ell: int):
    """Gamma(n1) Gamma(n2) / (t Gamma(d) ell!) with t = d + ell.  On the line
    t = 0, 1/(t Gamma(d)) tends to (-1)^ell ell!, so the value is
    (-1)^ell Gamma(n1) Gamma(n2) there."""
    def direct():
        num = complex_gamma(n1) * complex_gamma(n2)
        if t == 0:
            return (-1) ** ell * num
        return num * reciprocal_gamma(d) / (t * math.factorial(ell))

    return gamma_quotient(direct, (n1, n2), (d, ell + 1), (t,))


def _gamma_arg(num: int, den: int, exact):
    """num / den as an argument of Gamma: the correctly rounded quotient,
    which is float() of the exact value, or at a pole the exact value
    exact() itself, so that complex_gamma names it as it always has."""
    if num <= 0 and num % den == 0:
        return exact()
    return num / den


def c_ell(lam1, lam2, ell: int):
    """Composition constant of the transform pair: forward after backward is
    c_ell times the identity.

    Exact Fraction when either weight is an integer, a gamma product
    otherwise; raises PoleError where the continuation has a pole or a
    direction-dependent limit (use c_ell_status to classify without raising).
    """
    check_ell(ell)
    if is_exact(lam1) and is_exact(lam2):
        kind, val = c_ell_status(lam1, lam2, ell)
        if kind in ("nonzero", "zero"):
            return val
        raise PoleError(f"c_ell is {kind} at ({lam1}, {lam2}, ell={ell})")
    lam3 = lam1 + lam2 + 2 * ell
    return _c_ell_value(lam1 + ell, lam2 + ell, lam1 + lam2 + ell - 1, lam3 - 1, ell)


def _b_quotient(lam) -> tuple:
    """The `gamma_quotient` arguments of b_const(lam)."""
    if is_exact(lam):
        n, q = lam.numerator, lam.denominator
        power, arg = (2 * q - n) / q, _gamma_arg(n - q, q, lambda: lam - 1)
    else:
        power, arg = 2 - lam, lam - 1
    return (lambda: 2.0 ** power * math.pi * complex_gamma(arg),
            (arg,), (), (), power * _LOG2 + _LOG_PI)


def b_const(lam):
    """Squared-norm constant of the boundary Fourier transform on weighted
    half-plane spaces; poles at lam in {1, 0, -1, ...}.  An exact weight is
    read as its integer numerator over its denominator.  Where Gamma(lam - 1)
    overflows at real lam > 1, the value comes from `math.lgamma`: the power
    of 2 keeps b finite past that point (b(180.5) is about 4.8e272)."""
    return gamma_quotient(*_b_quotient(lam))


def log_b_const(lam):
    """(sign, log|b_const(lam)|) for a real weight off the poles, by
    `log_gamma_quotient`; finite where b_const leaves the double range
    (b(300) is about 1e520)."""
    return log_gamma_quotient(*_b_quotient(lam)[1:])


def _r_quotient(lam1, lam2, ell: int) -> tuple:
    """The `gamma_quotient` arguments of r_ell(lam1, lam2, ell)."""
    check_ell(ell)
    if is_exact(lam1) and is_exact(lam2):
        n1, q1 = lam1.numerator, lam1.denominator
        n2, q2 = lam2.numerator, lam2.denominator
        q = q1 * q2
        top = _gamma_arg(n1 * q2 + n2 * q1 + (2 * ell - 1) * q, q,
                         lambda: lam1 + lam2 + 2 * ell - 1)
        low1, low2 = (n1 - q1) / q1, (n2 - q2) / q2
    else:
        top, low1, low2 = lam1 + lam2 + 2 * ell - 1, lam1 - 1, lam2 - 1
    return (
        lambda: complex_gamma(top) * reciprocal_gamma(low1) * reciprocal_gamma(low2)
        / (2 ** (2 * ell + 2) * math.pi),
        (top,), (low1, low2), (2 ** (2 * ell + 2), math.pi),
    )


def r_ell(lam1, lam2, ell: int):
    """Quotient b(lam3) / (b(lam1) b(lam2)), continued through the zeros of
    the denominator by reciprocal gammas.  Exact weights are read as integer
    numerators over their denominators, as in c_ell_status."""
    return gamma_quotient(*_r_quotient(lam1, lam2, ell))


def log_r_ell(lam1, lam2, ell: int):
    """(sign, log|r_ell|) for real weights, by `log_gamma_quotient`; the sign
    is 0.0 where r_ell vanishes."""
    return log_gamma_quotient(*_r_quotient(lam1, lam2, ell)[1:])


def rc_operator_norm_sq(params: RCParams) -> float:
    """Operator norm squared r_ell * c_ell between the weighted spaces;
    defined for real weights above 1."""
    for lam in (params.lam1, params.lam2):
        if isinstance(lam, complex) or not float(lam) > 1:
            raise DomainError("operator norm needs real weights > 1")
    value = r_ell(params.lam1, params.lam2, params.ell) * c_ell(
        params.lam1, params.lam2, params.ell
    )
    return float(value)


# ---------------------------------------------------------------------------
# backward transform


def _var_plus_i(arity: int, var: int):
    entries = {tuple(1 if k == var else 0 for k in range(arity)): 1}
    entries[(0,) * arity] = qqi(0, 1)
    return base_poly(arity, entries)


def _pair_difference():
    return base_poly(2, {(1, 0): 1, (0, 1): -1})


def ktype_generator(params: RCParams) -> HoloSum:
    """Lowest-weight generator of the order-ell summand with unit leading
    coefficient:

        (z1 - z2)^ell (z1 + i)^(-lam1-ell) (z2 + i)^(-lam2-ell)

    Kept exact so composition identities can be checked without floats.
    """
    p = params
    bases = [
        (_pair_difference(), Fraction(p.ell)),
        (_var_plus_i(2, 0), -_exp(p.lam1) - p.ell),
        (_var_plus_i(2, 1), -_exp(p.lam2) - p.ell),
    ]
    return holo_sum(2, [term(2, 1, (0, 0), bases)])


def _exp(lam):
    return Fraction(lam) if is_exact(lam) else lam


def psi_ktype_closed_form(params: RCParams) -> HoloSum:
    """Backward transform of the one-variable generator (z + i)^(-lam3):
    the generator of the order-ell summand scaled by B(lam1+ell, lam2+ell)/ell!."""
    p = params
    coeff = beta(p.lam1 + p.ell, p.lam2 + p.ell) / math.factorial(p.ell)
    return scale(ktype_generator(params), coeff)


def psi_quadrature(params: RCParams, g, z1, z2):
    """Backward (holographic) transform of an evaluable one-variable
    function at the point (z1, z2): a weighted integral over the segment
    joining z1 and z2, by order-doubling Gauss-Jacobi quadrature
    (`integrate_adaptive`): it converges or raises DomainError.

    g is called on the array of segment nodes first, once per node only
    when that fails (see `quadrature.node_values`).  Needs real weights
    with lam1 + ell > 0 and lam2 + ell > 0 for the weight exponents to be
    integrable.
    """
    p = params
    if isinstance(p.lam1, complex) or isinstance(p.lam2, complex):
        raise DomainError("psi_quadrature needs real weights")
    a = float(p.lam1 + p.ell - 1)
    b = float(p.lam2 + p.ell - 1)
    if a <= -1 or b <= -1:
        raise DomainError("psi_quadrature needs lam1 + ell > 0 and lam2 + ell > 0")
    values = node_values(g)
    acc = integrate_adaptive(lambda v: values(((z2 - z1) * v + (z1 + z2)) / 2),
                             ("jacobi", a, b)).value
    pref = (z1 - z2) ** p.ell / (
        2.0 ** float(p.lam1 + p.lam2 + 2 * p.ell - 1) * math.factorial(p.ell)
    )
    return pref * acc


# ---------------------------------------------------------------------------
# Casimir operator


def casimir_P(lam1, lam2, f: HoloSum) -> HoloSum:
    """Second-order operator whose eigenfunctions cut out the order-ell
    summands, with eigenvalue -ell(lam1 + lam2 + ell - 1):

        (z1 - z2)^2 d1 d2 - lam2 (z1 - z2) d1 + lam1 (z1 - z2) d2

    Equals -2(sl2_casimir((lam1, lam2), f) - (lam1+lam2)(lam1+lam2-2)/8 f)
    on every two-variable sum f.
    """
    if f.arity != 2:
        raise DomainError("casimir_P needs a two-variable sum")
    l1, l2 = _exp(lam1), _exp(lam2)
    return apply_operator(f, [
        ((1, 1), 1, (2, 0)), ((1, 1), -2, (1, 1)), ((1, 1), 1, (0, 2)),
        ((1, 0), -l2, (1, 0)), ((1, 0), l2, (0, 1)),
        ((0, 1), l1, (1, 0)), ((0, 1), -l1, (0, 1)),
    ])


# ---------------------------------------------------------------------------
# inversion, zero set


def invert_rc(lam1, lam2, components, L=None):
    """Reassemble a two-variable function from its one-variable pieces:
    sum over ell of (1/c_ell) times the backward transform of components[ell],
    truncated at L when given (see `special_poly.levels`).  Each component
    must be evaluable on segments joining upper half-plane points."""
    chosen = [(1 / c_ell(lam1, lam2, ell), RCParams(lam1, lam2, ell), g)
              for ell, g in levels(components, L)]

    def reassembled(z1, z2):
        return sum(w * psi_quadrature(p, g, z1, z2) for w, p, g in chosen)

    return reassembled


def zero_classification(lam1, lam2, lam3) -> bool:
    """Whether c_ell vanishes at an integer triple with lam3 - lam1 - lam2
    in 2N, decided by the inequality pair

        2 >= lam1 + lam2 + lam3   and   lam3 >= |lam1 - lam2| + 2.
    """
    v1, v2, v3 = as_integer(lam1), as_integer(lam2), as_integer(lam3)
    if v1 is None or v2 is None or v3 is None:
        raise DomainError("zero_classification needs an integer triple")
    gap = v3 - v1 - v2
    if gap < 0 or gap % 2:
        raise DomainError("lam3 - lam1 - lam2 must be an even natural number")
    return 2 >= v1 + v2 + v3 and v3 >= abs(v1 - v2) + 2
