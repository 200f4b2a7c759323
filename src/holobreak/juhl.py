"""Cone-side symmetry breaking: the holomorphic differential operator built
from Gegenbauer coefficients, its polynomial eigen-identity on powers of the
Lorentz form, and the matching holographic machinery on time-like cones.

The half-line story of `l2_model` repeats here one rank higher.  The
differential operator drops one variable by restricting to a hyperplane; on
the cone side it becomes a fiberwise Gegenbauer expansion, the holographic
partner is a multiplication operator, and the inverse direction is realized
either through a two-domain kernel integral or through the multiplication
model followed by a Fourier-Laplace transform.

Symbolic identities (the eigen-identity, route equivalence, the kernel shape
under the operator) run in exact rational arithmetic through `term_algebra`;
everything metric (isometry ratios, fiber transforms, kernel integrals) is
quadrature with explicit weight folding.

Branch convention: kernel powers use a cut along [0, +inf) with argument in
(0, 2pi), not the principal cut.  Tube-domain arguments of the Lorentz form
never meet the positive real axis, while they do cross the negative one,
so the principal branch is the wrong tool here.  See `_power_positive_cut`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .l2_model import i_power
from .quadrature import (
    ArrayFormula,
    build_rule,
    geometric_panels,
    integrate,
    integrate_adaptive,
    integrate_region,
    node_values,
)
from .special_poly import (
    DomainError,
    PoleError,
    check_ell,
    complex_gamma,
    gamma_quotient,
    gegenbauer_a,
    gegenbauer_inflated,
    gegenbauer_norm_sq,
    gegenbauer_poly,
    is_exact,
    levels,
    pochhammer,
)
from .term_algebra import (
    BranchCutError,
    ExactnessError,
    HoloSum,
    _expand_base_power,
    _is_exact_sum,
    apply_operator,
    base_poly,
    canonical_form,
    combine,
    differentiate,
    holo_sum,
    qqi,
    restrict,
    term,
)

_I_QQI = (qqi(1), qqi(0, 1), qqi(-1), qqi(0, -1))


@dataclass(frozen=True)
class JuhlParams:
    """Parameter triple (n, lam, ell) of one cone-level breaking operator.

    `n` is the ambient dimension (at least 3), `lam` the source weight,
    `ell` the drop in the fiber degree.  The target weight is nu = lam + ell
    and the Gegenbauer parameter alpha = lam - (n-1)/2; both stay exact when
    `lam` is rational.  Unitary-range checks need lam real with lam > n - 1.
    """

    n: int
    lam: object
    ell: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise DomainError(f"need integer dimension n >= 3, got {self.n!r}")
        check_ell(self.ell)

    @property
    def nu(self):
        return self.lam + self.ell

    @property
    def alpha(self):
        if is_exact(self.lam):
            return Fraction(self.lam) - Fraction(self.n - 1, 2)
        return self.lam - (self.n - 1) / 2.0


def _real_scalar(x, what: str) -> float:
    if isinstance(x, complex):
        if x.imag != 0:
            raise DomainError(f"{what} must be real, got {x!r}")
        return x.real
    return float(x)


# ---------------------------------------------------------------------------
# cone geometry


def q_form(y):
    """Lorentz form y1^2 - y2^2 - ... - yk^2; exactness follows the inputs."""
    y = tuple(y)
    if not y:
        raise DomainError("q_form needs at least one coordinate")
    out = y[0] * y[0]
    for c in y[1:]:
        out = out - c * c
    return out


def _real_vector(y):
    try:
        return tuple(_real_scalar(c, "cone coordinate") for c in y)
    except TypeError as exc:
        raise DomainError(f"bad cone point {y!r}") from exc


def _cone_point(y, what: str):
    """(y, Q(y)) for a real point of the open cone, converted once; raises
    DomainError naming `what` when y is outside the cone."""
    y = _real_vector(y)
    q = q_form(y)
    if y[0] > 0 and q > 0:
        return y, q
    raise DomainError(f"{what} {y!r} is not in the cone")


def _cone_grid(y, dim: int):
    """Q(y) over a grid of the open `dim`-dimensional cone, one coordinate
    array per axis, checked in one pass; raises DomainError naming the
    first point outside, as `_cone_point` does for one point."""
    q = q_form(y)
    inside = (y[0] > 0) & (q > 0)
    if len(y) != dim or not np.all(inside):
        point = tuple(c[np.argmin(inside)].item() for c in y)
        raise DomainError(f"point {point!r} is not in the {dim}-dimensional cone")
    return q


def _fiber(y_prime, root: float, v):
    """Coordinate arrays of the fiber points (y', -root v) over v."""
    return [np.full(v.shape, c) for c in y_prime] + [-root * v]


def cone_density(lam, y) -> float:
    """Weight Q(y)^(k/2 - lam) of the cone measure in dimension k = len(y)."""
    lam = _real_scalar(lam, "density exponent")
    y, q = _cone_point(y, "point")
    return q ** (len(y) / 2.0 - lam)


# ---------------------------------------------------------------------------
# the differential operator, in two equivalent forms


JUHL_ROUTES = ("coefficients", "inflated")


def lorentz_laplacian(f: HoloSum, nvars: int) -> HoloSum:
    """Signature (1, nvars-1) wave operator acting on the leading variables,
    one `apply_operator` call; `nvars` is an int, not a bool."""
    if not isinstance(nvars, int) or isinstance(nvars, bool):
        raise DomainError(f"nvars must be an int, got {nvars!r}")
    if not 1 <= nvars <= f.arity:
        raise DomainError(f"laplacian over {nvars} of {f.arity} variables")
    terms = [(tuple(2 * (k == j) for k in range(f.arity)), -1 if j else 1) for j in range(nvars)]
    return apply_operator(f, terms)


# One exact-ladder benchmark repetition asks for the ladders of 12 inputs
@lru_cache(maxsize=32)
def _wave_ladder(f: HoloSum) -> list:
    """[f, wave f, wave^2 f, ...] of an exact n-variable sum, the wave operator
    over its first n - 1 variables, extended by every order and route."""
    return [f]


def _unrestricted_operator(params: JuhlParams, f: HoloSum, route: str) -> HoloSum:
    n, ell, alpha = params.n, params.ell, params.alpha
    if f.arity != n:
        raise DomainError(f"expected a sum in {n} variables, got {f.arity}")
    if route not in JUHL_ROUTES:
        raise DomainError(f"unknown route {route!r}; pick one of {JUHL_ROUTES}")
    # poly_two drops zero coefficients, so an absent exponent reads as 0
    inflated = dict(gegenbauer_inflated(ell, alpha).items()) if route == "inflated" else None
    waves = _wave_ladder(f) if _is_exact_sum(f) else [f]
    pieces = []
    for k in range(ell // 2 + 1):
        if k == len(waves):
            waves.append(lorentz_laplacian(waves[-1], n - 1))
        piece = differentiate(waves[k], n - 1, ell - 2 * k)
        if route == "coefficients":
            coeff = gegenbauer_a(ell, k, alpha)
        else:
            # substitute u -> -wave, v -> i d/dz_n into the two-variable form
            coeff = inflated.get((k, ell - 2 * k), 0) * _I_QQI[(ell - 2 * k) % 4]
            coeff = coeff * _I_QQI[(-ell) % 4]
            if k % 2:
                coeff = -coeff
        pieces.append((coeff, piece))
    return combine(n, pieces)


def juhl_sbo_apply(
    params: JuhlParams, f: HoloSum, route: str = "coefficients"
) -> HoloSum:
    """Apply the breaking operator: Gegenbauer-weighted wave and normal
    derivatives followed by restriction to the hyperplane z_n = 0.

    Both routes produce the same sum; `coefficients` expands the explicit
    a_k ladder, `inflated` substitutes operators into the two-variable
    Gegenbauer form with exact fourth-root-of-unity bookkeeping.
    """
    return restrict(_unrestricted_operator(params, f, route), "last-zero")


# ---------------------------------------------------------------------------
# the eigen-identity on powers of the form


def q_constant(n: int, ell: int, lam):
    """Eigenvalue polynomial (2^ell / ell!) (2 lam - n + 1)_ell (lam)_ell.

    Raises OverflowError when a float or complex value is not finite."""
    if ell < 0:
        raise DomainError("q_constant needs ell >= 0")
    lead = Fraction(2**ell, math.factorial(ell))
    value = lead * pochhammer(2 * lam - n + 1, ell) * pochhammer(lam, ell)
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise OverflowError(f"q_constant({n}, {ell}, {lam!r}) is not finite")
    return value


def _wave_base(n: int):
    entries = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        entries[tuple(e)] = 1 if i == 0 else -1
    return base_poly(n, entries)


def bernstein_sato_verify(params: JuhlParams):
    """Apply the operator to Q^(-lam) without restriction and resolve the
    result against the ladder z_n^(ell-2j) Q^(-lam-ell+j).

    Returns (q0, higher) where q0 is the extracted leading constant and
    `higher` lists every nonzero (j, coefficient) with j >= 1.  The identity
    under test says q0 equals `q_constant` and `higher` is empty; callers
    assert that.  The extraction is triangular from the top: the coefficient
    of z1^(2j) z_n^(ell-2j) only receives contributions from rungs >= j, so
    peeling highest-first isolates each q_j exactly.  A residue that fits no
    rung at all raises ArithmeticError.
    """
    if not is_exact(params.lam):
        raise ExactnessError(f"exact verification needs rational lam, got {params.lam!r}")
    n, ell = params.n, params.ell
    lam = Fraction(params.lam)
    q_base = _wave_base(n)
    f = holo_sum(n, [term(n, 1, None, [(q_base, -lam)])])
    applied = _unrestricted_operator(params, f, "coefficients")
    canon = canonical_form(applied)

    # the floor F = -lam - ell is the lowest power of Q on the ladder; at an
    # integer F >= 0 every rung is a polynomial that canonical_form expands
    # in full, so the floor reads as Q^0 and rung j as Q^(j + F)
    floor = -lam - ell
    polynomial = floor.denominator == 1 and floor >= 0
    lift = int(floor) if polynomial else 0
    want = () if polynomial else ((q_base, floor),)
    remaining = {}
    for (mono, sig), coeff in canon.items():
        if sig != want:
            raise ArithmeticError(f"unexpected base structure {sig!r}, expected {want!r}")
        remaining[mono] = coeff

    extracted = {}
    for j in range(ell // 2, -1, -1):
        probe = [0] * n
        probe[0] = 2 * (j + lift)
        probe[-1] = ell - 2 * j
        probe = tuple(probe)
        c = remaining.get(probe)
        if not c:
            extracted[j] = qqi(0)
            continue
        extracted[j] = c
        shift = [0] * n
        shift[-1] = ell - 2 * j
        den, entries = _expand_base_power(q_base, j + lift)
        for e, re, im in entries:
            key = tuple(a + b for a, b in zip(e, shift))
            prev = remaining.get(key, qqi(0))
            nxt = prev - c * qqi(Fraction(re, den), Fraction(im, den))
            if not nxt:
                remaining.pop(key, None)
            else:
                remaining[key] = nxt
    if remaining:
        raise ArithmeticError(f"residue outside the ladder: {sorted(remaining)[:4]}")
    higher = [(j, c) for j, c in sorted(extracted.items()) if j >= 1 and c]
    return extracted[0], higher


# ---------------------------------------------------------------------------
# multiplication model on the cone and the fiber transform


class ConeLift(ArrayFormula):
    """Holographic lift of h to the n-dimensional cone (see `phi_cone_apply`).

    In the fiber chart (y', v) -> y = (y', -sqrt(Q(y')) v) over the
    one-lower cone the lift is (1 - v^2)^(lam - n/2) times `_fiber_values`,
    the one place its formula is written.  `grid` is the lift on node
    arrays, one coordinate array per axis and one cone check per grid, and
    `juhl_hat_apply` evaluates it along a fiber; a one-point call takes the
    point as one tuple.
    `phi_isometry_ratio` and `cone_fourier_laplace` fold the weight into a
    Jacobi rule and read `_fiber_values` itself.
    """

    def __init__(self, params: JuhlParams, h):
        self.lam = _real_scalar(params.lam, "weight")
        self.n, self.ell = params.n, params.ell
        self.profile = gegenbauer_inflated(self.ell, float(params.alpha))
        self._h_grid = node_values(h, packed=True)

    def __call__(self, y):
        return super().__call__(*_real_vector(y))

    def _fiber_values(self, y_prime, q_prime, w):
        """Q'^(-(ell + 1/2)) (inflated C)(Q', w) h(y') at w = -y_n, with h
        read once per run of equal base points (see `_once_per_run`)."""
        return (
            q_prime ** (-(self.ell + 0.5))
            * self.profile(q_prime, w)
            * _once_per_run(self._h_grid, y_prime)
        )

    def grid(self, *y):
        q = _cone_grid(y, self.n)
        y_prime = y[:-1]
        q_prime = q_form(y_prime)
        return (
            self._fiber_values(y_prime, q_prime, -y[-1])
            * (q / q_prime) ** (self.lam - self.n / 2.0)
        )


def phi_cone_apply(params: JuhlParams, h) -> ConeLift:
    """Holographic lift: multiply h(y') by the fiber Gegenbauer profile.

    Returns a callable on the n-dimensional cone,

        Q'^(-(ell + 1/2)) (Q(y)/Q')^(lam - n/2) (inflated C)(Q', -y_n) h(y')

    with Q' the form of the leading n-1 coordinates.  In the fiber chart
    this is exactly (1/M) C_ell(v) h(y'), the multiplication form.
    """
    return ConeLift(params, h)


def _base_point(params: JuhlParams, y_prime):
    """(y', Q(y')) for a base point of the (n-1)-dimensional cone; raises
    DomainError when y' does not have n - 1 coordinates or is outside it."""
    y_prime, q_prime = _cone_point(y_prime, "base point")
    n = params.n
    if len(y_prime) != n - 1:
        raise DomainError(
            f"base point {y_prime!r} has {len(y_prime)} coordinates; "
            f"n = {n} needs n - 1 = {n - 1}"
        )
    return y_prime, q_prime


def juhl_hat_apply(params: JuhlParams, F, y_prime, method: str = "jacobi"):
    """Fiber Gegenbauer coefficient of F over the base point y'.

    Integrates F along the fiber against C_ell and scales by
    i^(-ell) Q'^((ell+1)/2).  Method `jacobi` folds the Gegenbauer weight
    (1-v^2)^(alpha - 1/2) into the rule, which is exact when F is a lifted
    function; `legendre` integrates the bare fiber restriction and suits
    profiles without that boundary decay, and folds the exponent 0, whose
    factor is exactly 1.  Non-convergence raises.
    """
    y_prime, q_prime = _base_point(params, y_prime)
    ell = params.ell
    alpha = _real_scalar(params.alpha, "Gegenbauer parameter")
    if method == "jacobi":
        a_w = alpha - 0.5
        spec = ("jacobi", a_w, a_w)
    elif method == "legendre":
        spec, a_w = ("legendre", -1.0, 1.0), 0.0
    else:
        raise DomainError(f"unknown fiber method {method!r}")
    poly = gegenbauer_poly(ell, alpha)
    root = math.sqrt(q_prime)
    values = node_values(F, packed=True)

    def g(v):
        return values(*_fiber(y_prime, root, v)) * poly(v) * (1.0 - v * v) ** (-a_w)

    res = integrate_adaptive(g, spec)
    return i_power(-ell) * q_prime ** (0.5 * (ell + 1)) * res.value


def phi_isometry_ratio(params: JuhlParams, h, y_prime) -> float:
    """Fiber-factorized isometry ratio of the lift at one base point.

    The squared lift integrated over the fiber, against the slice of the
    n-dimensional cone measure, divided by |h|^2 times the (n-1)-dimensional
    density.  Constant in y' and equal to the lift's isometry constant, so a
    single base point decides the ratio.  The fiber rule's Jacobi weight
    (1 - v^2)^(lam - n/2) is what the squared lift and the measure leave of
    (1 - v^2), so the rule integrates |`_fiber_values`|^2 as it is, and h is
    read once per pass.
    """
    lam = _real_scalar(params.lam, "weight")
    n = params.n
    y_prime, q_prime = _base_point(params, y_prime)
    lift = phi_cone_apply(params, h)
    root = math.sqrt(q_prime)
    a_w = lam - n / 2.0

    def g(v):
        *base, y_n = _fiber(y_prime, root, v)
        return np.abs(lift._fiber_values(base, q_prime, -y_n)) ** 2

    res = integrate_adaptive(g, ("jacobi", a_w, a_w))
    numer = q_prime ** ((n + 1) / 2.0 - lam) * res.value
    denom = abs(h(y_prime)) ** 2 * cone_density(params.nu, y_prime)
    if denom == 0.0:
        raise DomainError("h vanishes at the probe point")
    return numer / denom


# ---------------------------------------------------------------------------
# constants


def kernel_normalization(n: int, lam):
    """Reproducing-kernel constant of the weighted space on the n-cone tube.

    (2i)^(2 lam) (lam - n/2) (lam - n + 1)_(n-1) / (2 pi)^n, with the
    power on the principal branch.  The Gamma quotient is expanded as a
    Pochhammer product, so the expression is entire in lam.

    Calibrated so that k Q(z - conj(w))^(-lam) self-reproduces against the
    plain measure Q(Im tau)^(lam - n) dx deta.  At n = 1, lam = 1 this
    collapses to the classical unweighted half-plane kernel -1/pi
    (z - conj(w))^(-2).
    """
    lam_c = complex(lam)
    phase = cmath.exp(2.0 * lam_c * cmath.log(2j))
    rising = complex(pochhammer(lam_c - n + 1, n - 1))
    return phase * (lam_c - n / 2.0) * rising / (2.0 * math.pi) ** n


def cone_b_const(m: int, s: float) -> float:
    """Fourier-Laplace isometry constant b_m(s) of the cone level in
    dimension m at weight s, the cone analogue of `rc_transform.b_const`:
    (2 pi)^(3m/2 - 1) 2^(-m/2) Gamma(s - m/2) Gamma(s - m + 1); at m = 1
    this reduces by Legendre duplication to 2 pi 2^(1 - 2s) Gamma(2s - 1),
    the classical half-plane Parseval constant.  No lgamma sum would help
    past a Gamma overflow: with nothing to divide by, the constant is past
    the double range there too (b_4 at s = 200.5 is about 2.5e739)."""
    g1 = complex_gamma(s - m / 2.0)
    g2 = complex_gamma(s - m + 1.0)
    return (2.0 * math.pi) ** (1.5 * m - 1.0) * 2.0 ** (-0.5 * m) * (g1 * g2).real


def cone_c_ell(params: JuhlParams) -> float:
    """Fiber Gegenbauer norm c_ell of one level: the squared norm of C_ell
    at alpha = lam - (n-1)/2 against (1-v^2)^(alpha - 1/2)."""
    c = gegenbauer_norm_sq(params.ell, _real_scalar(params.alpha, "Gegenbauer parameter"))
    return float(c.real if isinstance(c, complex) else c)


def cone_r_ell(params: JuhlParams) -> float:
    """Transform-constant ratio r_ell = b_prev / b_n of one level, by its
    Gamma closed form, through the lgamma sum past a Gamma overflow (see
    `special_poly.gamma_quotient`).  Gamma poles surface as PoleError."""
    lam = _real_scalar(params.lam, "weight")
    n, ell = params.n, params.ell
    up = (lam + ell - (n - 1) / 2.0, lam + ell - n + 2.0)
    down = (lam - n / 2.0, lam - n + 1.0)

    def direct():
        num = math.sqrt(2.0) * complex_gamma(up[0]) * complex_gamma(up[1])
        den = (2.0 * math.pi) ** 1.5 * complex_gamma(down[0]) * complex_gamma(down[1])
        return (num / den).real

    return gamma_quotient(direct, up, down, (), math.log(math.sqrt(2.0) / (2.0 * math.pi) ** 1.5))


def cone_constants(params: JuhlParams) -> dict:
    """All scalar constants of one (n, lam, ell) level, by closed form.

    Keys: `c_ell` (`cone_c_ell`), `r_ell` (`cone_r_ell`), `b_n` and
    `b_prev` (Fourier-Laplace isometry constants of the two cone levels),
    `kernel_const`, and `adjoint_const` (see `adjoint_constant`).  Gamma
    poles of any of them surface as PoleError; a caller that reads one
    constant calls its own function.
    """
    lam = _real_scalar(params.lam, "weight")
    n = params.n
    return {
        "c_ell": cone_c_ell(params),
        "r_ell": cone_r_ell(params),
        "b_n": cone_b_const(n, lam),
        "b_prev": cone_b_const(n - 1, lam + params.ell),
        "kernel_const": kernel_normalization(n, lam),
        "adjoint_const": adjoint_constant(params),
    }


def adjoint_constant(params: JuhlParams) -> complex:
    """Scalar in front of the kernel realization of the adjoint.  A product
    of Pochhammer symbols, so finite where `cone_constants` meets a pole."""
    lam = _real_scalar(params.lam, "weight")
    n, ell = params.n, params.ell
    return (
        2.0 ** (2 * lam - n + ell - 1)
        * complex(pochhammer(lam - n + 1.0, n + ell - 1))
        * complex(pochhammer(2.0 * lam - n, ell + 1))
        / (cmath.exp(1j * math.pi * (lam + ell)) * math.pi**n * math.factorial(ell))
    )


def juhl_operator_norm_sq(params: JuhlParams) -> float:
    """Squared operator norm of the breaking operator: r_ell * c_ell."""
    return cone_r_ell(params) * cone_c_ell(params)


# ---------------------------------------------------------------------------
# kernels and the holographic integral


def _power_positive_cut(w, s):
    """w^s with the branch cut along [0, +inf): argument taken in (0, 2pi).

    Values of the Lorentz form on tube-domain differences stay off the
    positive real axis but routinely cross the negative one, where the
    principal branch would jump.  w is one number or an array; a zero
    base anywhere raises PoleError, and an argument within 1e-10 of the cut
    anywhere raises BranchCutError naming the first such value.  The cut
    test is |arg w| < 1e-10 in the form re w > 0, |im w| < 1e-10 re w, so
    that it needs no angle.

    A real integer s gives w^s one value on every branch: it is computed
    by binary powering, of w for s > 0 and of 1/w for s < 0 (ones for
    s = 0).  Any other s is exp(s (log|w| + i arg w)) with arg w in
    (0, 2pi).
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise PoleError("zero base in a kernel power")
    near = (w.real > 0.0) & (np.abs(w.imag) < 1e-10 * w.real)
    if np.any(near):
        bad = np.ravel(w)[np.argmax(np.ravel(near))].item()
        raise BranchCutError(f"argument of {bad!r} within 1e-10 of the [0, inf) cut")
    s = complex(s)
    if s.imag == 0.0 and s.real.is_integer():
        k = int(s.real)
        if k == 0:
            return np.ones_like(w)[()]
        return _binary_power(w if k > 0 else 1.0 / w, abs(k))[()]
    a = np.angle(w)
    a = np.where(a <= 0.0, a + 2.0 * math.pi, a)
    return np.exp(s * (np.log(np.abs(w)) + 1j * a))


def _binary_power(base, k: int):
    """base^k for an integer k >= 1 by repeated squaring, as a new array."""
    if k == 1:
        return base.copy()
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def _require_tube(z, dim: int, what: str):
    z = tuple(complex(c) for c in z)
    if len(z) != dim:
        raise DomainError(f"{what} must have {dim} coordinates, got {len(z)}")
    try:
        _cone_point([c.imag for c in z], what)
    except DomainError:
        raise DomainError(f"{what} {z!r} is outside the tube domain") from None
    return z


def relative_kernel(params: JuhlParams, zeta, tau_prime):
    """Two-domain kernel z_n^ell Q((z' - conj(t'), z_n))^(-nu).

    Stored with the nonnegative z_n power multiplied through, so the value
    is regular on the hyperplane z_n = 0 instead of carrying a removable
    quotient singularity.
    """
    n = params.n
    zeta = _require_tube(zeta, n, "first kernel argument")
    tau_prime = _require_tube(tau_prime, n - 1, "second kernel argument")
    w = tuple(zc - tc.conjugate() for zc, tc in zip(zeta, tau_prime)) + (zeta[-1],)
    nu = complex(params.nu)
    return _power_positive_cut(q_form(w), -nu) * zeta[-1] ** params.ell


def holographic_integral(
    params: JuhlParams, g, zeta, radius: float = 20.0, order: int = 24
):
    """Adjoint realization as a kernel integral over the lower tube (n = 3).

    Fixed-order product quadrature: ``("legendre", -radius, radius)`` in
    both real parts, and in the imaginary parts light-cone coordinates
    s, t, each on ``("jacobi", 0, nu - 2, 0, radius)``, whose weight is the
    measure factor s^(nu - 2) (t^(nu - 2)) itself; the 1/2 left over is the
    Jacobian of (s, t).  The result is the kernel pairing times the adjoint
    constant.  g takes one point tau of the lower tube as a tuple; it is
    called on the tuple of complex node arrays first, once per node only
    when that fails (see `quadrature.node_values`).  Accuracy is the
    documented smoke-test level (about 1e-2 at the defaults), not a
    converged integral.
    """
    if params.n != 3:
        raise DomainError("the kernel integral is only implemented for n = 3")
    zeta = _require_tube(zeta, 3, "evaluation point")
    nu = _real_scalar(params.nu, "target weight")
    rule_x = build_rule(("legendre", -radius, radius), order)
    rule_st = build_rule(("jacobi", 0.0, nu - 2.0, 0.0, radius), order)

    z1, z2, z3 = zeta
    z3_pow = z3**params.ell
    z3_sq = z3 * z3
    g_values = node_values(g, packed=True)

    def integrand(s_val, t_val, x1, x2):
        tau1 = x1 + 1j * (0.5 * (s_val + t_val))
        tau2 = x2 + 1j * (0.5 * (s_val - t_val))
        d1 = z1 - np.conj(tau1)
        d2 = z2 - np.conj(tau2)
        return _power_positive_cut(d1 * d1 - d2 * d2 - z3_sq, -nu) * g_values(tau1, tau2)

    total = integrate(integrand, rule_st, rule_st, rule_x, rule_x)
    return adjoint_constant(params) * z3_pow * 0.5 * total


def _cone_chart(d: int, y_max: float, folds):
    """Chart of the open d-dimensional cone cut at y1 = y_max, d >= 2:
    (axes, point), where `point(*nodes)` takes one node array per axis and
    returns the cone's coordinate arrays and the chart's Jacobian.

    The chart is the fiber chart (y', v) -> (y', -sqrt(Q(y')) v) applied
    again and again, from the half-line y1 > 0 on geometric panels:
    y_k = -s_(k-1) v_k for k = 2 ... d, with s_1 = y1 and
    s_k = s_(k-1) sqrt(1 - v_k^2), so that Q of the leading k coordinates
    is s_k^2 and Q(y) = y1^2 prod (1 - v_k^2).  Each v_k runs
    on ``("jacobi", a_k, a_k)``, a_k = (d - k)/2 + folds[k - 2]: the
    Jacobian's own power of (1 - v_k^2) and a fold for that axis.  What is
    left of the Jacobian is y1^(d - 1); a caller that folds divides its
    folds out itself.
    """
    axes = [("panels", geometric_panels(0.0, y_max, first=0.25))]
    axes += [("jacobi", a, a) for a in ((d - k) / 2.0 + f for k, f in zip(range(2, d + 1), folds))]

    def point(y1, *v):
        y, s = [y1], y1
        for vk in v:
            y.append(-s * vk)
            s = s * np.sqrt(1.0 - vk * vk)
        return y, y1 ** (d - 1)

    return axes, point


def _once_per_run(values, y):
    """values(*y) on coordinate arrays whose points come in runs of equal
    points: called on each run's first point and repeated over the run."""
    first = np.zeros(y[0].shape, dtype=bool)
    first[:1] = True
    for c in y:
        first[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(first)
    return np.repeat(values(*(c[starts] for c in y)), np.diff(starts, append=first.size))


def cone_fourier_laplace(
    F,
    zeta,
    n: int,
    rho_exponent: float = 0.0,
    y_max: float = 40.0,
    tol: float = 1e-6,
    start_order: int = 8,
    max_order: int = 48,
):
    """Fourier-Laplace transform of F over the n-dimensional cone, n >= 3,
    cut at y1 = y_max.

    Every F is integrated in one chart, the fiber chart (y', v) ->
    (y', -sqrt(Q(y')) v) applied again and again from the half-line y1 > 0
    (see `_cone_chart`): y = (y1, -y1 v_2, -s_2 v_3, ...), where
    1 - rho^2 = Q(y)/y1^2 = prod (1 - v_k^2).  Only the folds of the fiber
    axes differ.

    A lift (`phi_cone_apply`) folds -1/2 on every axis but the last and
    lam - n/2 on the last, the lift's own (1 - v^2)^(lam - n/2), so lam must
    exceed n/2 - 1; what is left is Q'^(-ell) (inflated C)(Q', -y_n) h(y')
    y1^(n-2), and h is evaluated once per base node, not once per grid
    point.  A lift's folds come from its weight, so a nonzero
    `rho_exponent` raises DomainError.

    Any other F folds `rho_exponent` on every fiber axis and divides it
    back out as (Q/y1^2)^(-rho_exponent).  `rho_exponent` declares how fast
    F vanishes at the cone boundary, as a power of (1 - rho^2), so an
    integrand with fractional boundary decay still converges at spectral
    rate.  F takes one point y as a tuple, and is called on the tuple of
    node arrays first, once per node (a tuple of floats) only when that
    fails (see `quadrature.node_values`).

    The imaginary part of zeta must lie in the open cone, which is what
    makes the oscillatory factor decay.  Raises DomainError when the
    quadrature does not converge.
    """
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"need integer dimension n >= 3, got {n!r}")
    zeta = _require_tube(zeta, n, "transform argument")
    re = float(rho_exponent)
    if isinstance(F, ConeLift):
        if F.n != n:
            raise DomainError(f"a lift to the {F.n}-dimensional cone has no transform at n = {n}")
        if re:
            raise DomainError(
                f"a lift's boundary folds come from its weight; got rho_exponent = {re}"
            )
        a = F.lam - n / 2.0
        if not a > -1.0:
            raise DomainError(
                f"the fiber chart needs the lift's weight lam > n/2 - 1 = {n / 2.0 - 1.0}, "
                f"got lam = {F.lam}"
            )
        folds = [-0.5] * (n - 2) + [a]

        def folded(y):
            y_prime = y[:-1]
            q_prime = q_form(y_prime)
            return F._fiber_values(y_prime, q_prime, -y[-1]) * np.sqrt(q_prime) / y[0]
    else:
        folds = [re] * (n - 1)
        values = node_values(F, packed=True)

        def folded(y):
            out = values(*y)
            return out * (q_form(y) / (y[0] * y[0])) ** -re if re else out

    axes, chart = _cone_chart(n, y_max, folds)

    def integrand(*nodes):
        y, jac = chart(*nodes)
        pairing = sum(yc * zc for yc, zc in zip(y, zeta))
        return folded(y) * np.exp(1j * pairing) * jac

    return integrate_region(
        integrand, axes, tol=tol, start_order=start_order, max_order=max_order
    ).value


def invert_juhl(
    n: int,
    lam,
    components: dict,
    L=None,
    *,
    method: str,
    radius: float = 20.0,
    order: int = 24,
    y_max: float = 40.0,
    tol: float = 1e-6,
):
    """Assemble the inverse series from per-level components.

    `components` maps ell to a component function of the kind the named
    `method` takes.  Method `holographic` (n = 3 only) expects holomorphic
    components on the lower tube and pairs each against the kernel, a
    fixed-order smoke test, with weight 1/(r_ell c_ell); method `l2`
    expects cone-model components on the lower cone, lifts each one, and
    runs the Fourier-Laplace transform with weight i^ell / c_ell.  The
    transform integrates a lift in the chart of `cone_fourier_laplace`,
    y = (y', -sqrt(Q(y')) v) applied again and again, with the lift's
    weight folded into the last fiber rule, which needs lam > n/2 - 1.
    Levels above L are dropped (see `special_poly.levels`).  Returns a
    callable on the n-tube.
    """
    items = levels(components, L)
    if method == "holographic":
        if n != 3:
            raise DomainError("holographic assembly is only available at n = 3")

        def level(p, comp):
            return (1.0 / (cone_r_ell(p) * cone_c_ell(p)),
                    partial(holographic_integral, p, comp, radius=radius, order=order))
    elif method == "l2":
        def level(p, comp):
            return (i_power(p.ell) / cone_c_ell(p),
                    partial(cone_fourier_laplace, phi_cone_apply(p, comp), n=n, y_max=y_max,
                            tol=tol))
    else:
        raise DomainError(f"unknown assembly method {method!r}")
    plan = [level(JuhlParams(n, lam, ell), comp) for ell, comp in items]

    def assembled(zeta):
        total = 0.0j
        for w, transform in plan:
            total += w * transform(zeta)
        return total

    return assembled
