"""Scalar and polynomial layer, checked against closed forms and scipy."""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from holobreak.special_poly import (
    DomainError,
    PoleError,
    beta,
    complex_gamma,
    gegenbauer_a,
    gegenbauer_inflated,
    gegenbauer_norm_sq,
    gegenbauer_poly,
    jacobi_inflated,
    jacobi_norm_sq,
    jacobi_poly,
    jacobi_variant,
    levels,
    log_gamma_quotient,
    pochhammer,
    poly_one,
    poly_two,
    reciprocal_gamma,
    _jacobi_coeffs,
)
from holobreak.rc_transform import log_b_const, log_r_ell, r_ell
from holobreak.term_algebra import apply_operator, canonical_form, holo_sum, qqi, term

F = Fraction

rationals = st.fractions(
    min_value=F(-3), max_value=F(4), max_denominator=4
)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# --- scalars ---------------------------------------------------------------


def test_pochhammer_exact():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert isinstance(pochhammer(F(1, 2), 3), Fraction)
    assert pochhammer(7, 0) == 1
    assert pochhammer(-2, 4) == 0  # crosses zero


def test_pochhammer_rejects_bad_k():
    with pytest.raises(DomainError):
        pochhammer(1, -1)


def test_gamma_matches_math_on_reals():
    for x in (0.5, 1.0, 2.5, 7.3, 11.0):
        assert rel(complex_gamma(x), math.gamma(x)) < 1e-14


def test_gamma_reflection_negative_real():
    assert rel(complex_gamma(-0.5), math.gamma(-0.5)) < 1e-12
    assert rel(complex_gamma(-2.3), math.gamma(-2.3)) < 1e-12


def test_gamma_complex_against_scipy():
    for z in (1.5 + 2j, -2.3 + 1j, 0.3 - 0.7j, 4.0 + 0.01j):
        assert rel(complex_gamma(z), complex(sps.gamma(z))) < 1e-11


def test_gamma_poles():
    for z in (0, -3, -3.0, F(-3)):
        with pytest.raises(PoleError):
            complex_gamma(z)


@given(
    st.complex_numbers(
        min_magnitude=0.3, max_magnitude=6, allow_infinity=False, allow_nan=False
    )
)
@settings(max_examples=60)
def test_gamma_functional_equation(z):
    if abs(z.imag) < 1e-3 and z.real < 0.5:
        return  # too close to the pole line for a float identity check
    assert rel(z * complex_gamma(z), complex_gamma(z + 1)) < 1e-9


def test_reciprocal_gamma():
    assert reciprocal_gamma(-5) == 0.0
    assert reciprocal_gamma(0) == 0.0
    assert rel(reciprocal_gamma(4), 1 / 6) < 1e-14


def test_beta_values():
    assert rel(beta(2, 3), F(1, 12)) < 1e-14
    assert rel(beta(0.5, 0.5), math.pi) < 1e-13


def test_beta_pole_cancellation():
    # B(-2, 1) = lim Gamma(-2+e)/Gamma(-1+e) = -1/2, reached exactly
    assert beta(-2, 1) == F(-1, 2)


@pytest.mark.parametrize("a, b, want", [
    (1, -3, F(-1, 3)),  # B(1, x) = 1/x: the pole in b is swapped into a
    (-3, 1, F(-1, 3)),
    (2, -3, F(1, 6)),
])
def test_beta_pole_cancellation_in_either_argument(a, b, want):
    assert beta(a, b) == want


def test_beta_uncancelled_pole_raises():
    with pytest.raises(PoleError):
        beta(-1, 0.5)
    with pytest.raises(PoleError):
        beta(-1, -1)


# --- jacobi family ---------------------------------------------------------


def test_jacobi_low_degrees():
    assert jacobi_poly(0, F(1), F(2)).coefficients == (1,)
    p1 = jacobi_poly(1, F(1, 2), F(3, 2))
    # (alpha - beta)/2 + (alpha + beta + 2)/2 t
    assert p1.coefficients == (F(-1, 2), F(2))


def test_jacobi_is_legendre_at_zero_params():
    p3 = jacobi_poly(3, F(0), F(0))
    assert p3.coefficients == (F(0), F(-3, 2), F(0), F(5, 2))


@given(rationals, rationals, st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_jacobi_endpoint_values(alpha, beta_, ell):
    p = jacobi_poly(ell, alpha, beta_)
    assert p(F(1)) == pochhammer(alpha + 1, ell) / math.factorial(ell)
    assert p(F(-1)) == (-1) ** ell * pochhammer(beta_ + 1, ell) / math.factorial(ell)


def _product(p, q):
    """Coefficients of the product of two polynomials, low degree first."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _falling(x, k):
    out = F(1)
    for i in range(k):
        out *= x - i
    return out


@given(rationals, rationals, st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_jacobi_rodrigues_oracle(alpha, beta_, ell):
    # Leibniz expansion of the ell-th derivative of (1-t)^(ell+a) (1+t)^(ell+b),
    # divided through by the weight; assembled independently of jacobi_poly.
    acc = [F(0)] * (ell + 1)
    for k in range(ell + 1):
        coeff = (
            F(math.comb(ell, k))
            * (-1) ** k
            * _falling(ell + alpha, k)
            * _falling(ell + beta_, ell - k)
        )
        piece = [coeff]
        for _ in range(ell - k):
            piece = _product(piece, (1, -1))
        for _ in range(k):
            piece = _product(piece, (1, 1))
        acc = [a + b for a, b in zip(acc, piece, strict=True)]
    scale = F((-1) ** ell, 2**ell * math.factorial(ell))
    assert jacobi_poly(ell, alpha, beta_) == poly_one([scale * c for c in acc])


@given(rationals, rationals, st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_jacobi_ode_residual_vanishes(alpha, beta_, ell):
    # (1 - t^2) y'' + (beta - alpha - (alpha + beta + 2) t) y'
    # + ell (ell + alpha + beta + 1) y, as one exact operator table on y
    # written as a one-variable sum
    coefficients = jacobi_poly(ell, alpha, beta_).coefficients
    y = holo_sum(1, [term(1, c, (k,)) for k, c in enumerate(coefficients)])
    rows = [
        ((2,), 1), ((2,), -1, (2,)),
        ((1,), beta_ - alpha), ((1,), -(alpha + beta_ + 2), (1,)),
        ((0,), ell * (ell + alpha + beta_ + 1)),
    ]
    assert apply_operator(y, rows) == holo_sum(1, [])
    # the sum holds exactly the coefficients special_poly built
    assert canonical_form(y) == {((k,), ()): qqi(c) for k, c in enumerate(coefficients) if c}


def _per_j_coeffs(ell, alpha, beta_):
    return [
        pochhammer(alpha + beta_ + ell + 1, j) * pochhammer(alpha + j + 1, ell - j)
        / (math.factorial(j) * math.factorial(ell - j))
        for j in range(ell + 1)
    ]


@given(rationals, rationals, st.floats(-0.9, 4.0), st.floats(-0.9, 4.0),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=40, deadline=None)
def test_jacobi_coeffs_match_per_j_rising_factorials(alpha, beta_, a, b, ell):
    # running products against both rising factorials rebuilt for every j:
    # equal for exact parameters, whose integer numerators share one
    # denominator; in float the descending product is multiplied in the
    # other order, so equal up to rounding
    nums, den = _jacobi_coeffs(ell, alpha, beta_)
    assert [F(n, den) for n in nums] == _per_j_coeffs(ell, alpha, beta_)
    cs, den = _jacobi_coeffs(ell, a, b)
    assert den is None
    for got, want in zip(cs, _per_j_coeffs(ell, a, b), strict=True):
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_jacobi_against_scipy():
    p = jacobi_poly(5, F(3, 10), F(17, 10))
    for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
        assert rel(p(x), sps.eval_jacobi(5, 0.3, 1.7, x)) < 1e-12


def test_jacobi_inflated_degree_one():
    alpha, beta_ = F(1, 3), F(5, 2)
    q = jacobi_inflated(1, alpha, beta_)
    assert q.coeff(1, 0) == beta_ + 1
    assert q.coeff(0, 1) == -(alpha + 1)


@given(rationals, rationals, st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_jacobi_inflated_homogeneous(alpha, beta_, ell):
    assert all(i + j == ell for (i, j), _ in jacobi_inflated(ell, alpha, beta_).items())


@given(rationals, rationals, st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_jacobi_inflated_recovers_polynomial(alpha, beta_, ell):
    q = jacobi_inflated(ell, alpha, beta_)
    p = jacobi_poly(ell, alpha, beta_)
    # on the section x + y = 1 the inflation is (+/-) the polynomial at 1-2x
    for x in (F(0), F(1, 3), F(1, 2), F(2, 3), F(7, 5), F(-1, 4)):
        assert q(x, 1 - x) == (-1) ** ell * p(1 - 2 * x)


@given(rationals, rationals, st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_variant_matches_inflated_by_parameter_flip(alpha, beta_, ell):
    flipped = jacobi_variant(ell, alpha, -alpha - beta_ - 2 * ell - 1)
    target = {e: (-1) ** ell * c for e, c in jacobi_inflated(ell, alpha, beta_).items()}
    assert flipped == poly_two(target)


# --- gegenbauer family -----------------------------------------------------


def test_gegenbauer_inflated_degree_two():
    alpha = F(3, 4)
    q = gegenbauer_inflated(2, alpha)
    assert q.coeff(0, 2) == 2 * alpha * (alpha + 1)
    assert q.coeff(1, 0) == -alpha


def test_gegenbauer_a_domain():
    with pytest.raises(DomainError):
        gegenbauer_a(3, 2, F(1))


@pytest.mark.parametrize("build", [
    lambda ell: jacobi_poly(ell, 1, 1),
    lambda ell: jacobi_inflated(ell, 1, 1),
    lambda ell: jacobi_variant(ell, 1, 1),
    lambda ell: gegenbauer_poly(ell, F(3, 2)),
    lambda ell: gegenbauer_inflated(ell, F(3, 2)),
    lambda ell: gegenbauer_a(ell, 0, F(3, 2)),
], ids=["jacobi_poly", "jacobi_inflated", "jacobi_variant",
        "gegenbauer_poly", "gegenbauer_inflated", "gegenbauer_a"])
@pytest.mark.parametrize("ell", [True, False, 2.5, 2.0, F(2), -1])
def test_polynomial_builders_need_int_degree(build, ell):
    # a bool passes isinstance(int), and a float degree would reach list
    # repetition as a TypeError; each fails the one rule for ell
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        build(ell)


def test_levels_sorts_and_truncates():
    comps = {3: "c", 0: "a", 1: "b"}
    assert levels(comps) == [(0, "a"), (1, "b"), (3, "c")]
    assert levels(comps, L=1) == [(0, "a"), (1, "b")]
    assert levels(comps, L=0) == [(0, "a")]
    assert levels({}, L=2) == [] and levels({2: "c"}, L=1) == []


@pytest.mark.parametrize("keys, L", [((0, "a"), None), ((1.0,), None), ((True,), None),
                                     ((-1,), None), ((0,), -1), ((0,), True), ((), 0.5)])
def test_levels_take_the_ell_rule(keys, L):
    # every key and L pass check_ell, before sorting: {0, "a"} is not a
    # TypeError from sorted, and neither 1.0 nor True is a level
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        levels(dict.fromkeys(keys), L)


@given(rationals.filter(lambda a: a > 0), st.integers(min_value=0, max_value=7))
@settings(max_examples=30, deadline=None)
def test_gegenbauer_value_at_one(alpha, ell):
    c = gegenbauer_poly(ell, alpha)
    assert c(F(1)) == pochhammer(2 * alpha, ell) / math.factorial(ell)


@given(rationals.filter(lambda a: a > -1), st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_gegenbauer_from_jacobi_bridge(alpha, ell):
    # C^(alpha+1/2) is the (alpha, alpha) Jacobi polynomial rescaled
    ratio = pochhammer(2 * alpha + 1, ell) / pochhammer(alpha + 1, ell)
    lhs = [ratio * c for c in jacobi_poly(ell, alpha, alpha).coefficients]
    rhs = gegenbauer_poly(ell, alpha + F(1, 2)).coefficients
    assert poly_one(lhs) == poly_one(rhs)


def test_gegenbauer_generating_function():
    alpha, t, r = 0.8, 0.3, 0.4
    total = sum(gegenbauer_poly(ell, alpha)(t) * r**ell for ell in range(48))
    assert rel(total, (1 - 2 * t * r + r * r) ** (-alpha)) < 1e-12


def test_gegenbauer_against_scipy():
    c = gegenbauer_poly(6, F(5, 4))
    for x in (-0.8, -0.1, 0.5, 0.95):
        assert rel(c(x), sps.eval_gegenbauer(6, 1.25, x)) < 1e-12


# --- closed-form norms -----------------------------------------------------


def test_jacobi_norm_legendre_case():
    for ell in range(6):
        assert rel(jacobi_norm_sq(ell, 0, 0), 2 / (2 * ell + 1)) < 1e-13


def test_jacobi_norm_chebyshev_edge():
    # alpha + beta = -1 hits the removable pole of the generic formula
    assert rel(jacobi_norm_sq(0, -0.5, -0.5), math.pi) < 1e-13


def test_gegenbauer_norms():
    assert rel(gegenbauer_norm_sq(0, F(1, 2)), 2.0) < 1e-13
    assert rel(gegenbauer_norm_sq(0, 0), math.pi) < 1e-13
    assert gegenbauer_norm_sq(3, 0) == 0.0


def test_gegenbauer_norm_via_jacobi():
    for ell in range(5):
        alpha = 0.75
        ratio = float(
            pochhammer(2 * alpha + 1, ell) / pochhammer(alpha + 1, ell)
        )
        want = ratio**2 * jacobi_norm_sq(ell, alpha, alpha)
        assert rel(gegenbauer_norm_sq(ell, alpha + 0.5), want) < 1e-12


def test_norm_domain_errors():
    with pytest.raises(DomainError):
        jacobi_norm_sq(0, -1.5, 0)
    with pytest.raises(DomainError):
        jacobi_norm_sq(0, 1 + 1j, 0)
    with pytest.raises(DomainError):
        gegenbauer_norm_sq(2, -0.6)
    with pytest.raises(DomainError):
        gegenbauer_norm_sq(2, 1 + 1j)


# --- containers ------------------------------------------------------------


def test_poly_one_normalization_and_degree():
    p = poly_one([F(1), F(2), F(0), F(0)])
    assert p.coefficients == (F(1), F(2))
    assert len(p.coefficients) - 1 == 1  # the degree
    assert poly_one([0, 0]).coefficients == (0,)


def test_poly_two_items_sorted_and_zero_dropped():
    q = poly_two({(1, 0): F(2), (0, 1): F(0)})
    assert q.items() == (((1, 0), F(2)),)
    assert [i + j for (i, j), _ in q.items()] == [1]


@pytest.mark.parametrize("key, want", [((1, 0), F(2)), ((0, 1), 0), ((0, 0), 0), ((2, 5), 0)])
def test_poly_two_coeff_reads_an_absent_key_as_zero(key, want):
    # (0, 1) was given as a zero and dropped; the others never were
    q = poly_two({(1, 0): F(2), (0, 1): F(0)})
    assert q.coeff(*key) == want


# ---------------------------------------------------------------------------
# Gamma quotients past a Gamma overflow, against mpmath


def _mp(x):
    return mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator


def _mp_jacobi_norm_sq(ell, a, b):
    a, b, g = _mp(a), _mp(b), mpmath.gamma
    return (2 ** (a + b + 1) * g(ell + a + 1) * g(ell + b + 1)
            / ((2 * ell + a + b + 1) * g(ell + a + b + 1) * mpmath.factorial(ell)))


def _mp_gegenbauer_norm_sq(ell, a):
    a, g = _mp(a), mpmath.gamma
    return mpmath.pi * 2 ** (1 - 2 * a) * g(ell + 2 * a) / (mpmath.factorial(ell) * (ell + a) * g(a) ** 2)


# each point overflows a Gamma factor of the direct product; the value is
# a finite double
OVERFLOW_CASES = [
    (lambda: beta(200.5, 200.5), lambda: mpmath.beta(200.5, 200.5)),
    (lambda: beta(F(401, 2), 3), lambda: mpmath.beta(_mp(F(401, 2)), 3)),
    (lambda: beta(180.25, 0.5), lambda: mpmath.beta(180.25, 0.5)),
    (lambda: jacobi_norm_sq(3, 180.5, 2.5), lambda: _mp_jacobi_norm_sq(3, 180.5, 2.5)),
    (lambda: jacobi_norm_sq(0, 300.5, 200.5), lambda: _mp_jacobi_norm_sq(0, 300.5, 200.5)),
    (lambda: jacobi_norm_sq(5, F(401, 2), -0.5), lambda: _mp_jacobi_norm_sq(5, F(401, 2), -0.5)),
    (lambda: gegenbauer_norm_sq(2, 200.5), lambda: _mp_gegenbauer_norm_sq(2, 200.5)),
    (lambda: gegenbauer_norm_sq(7, F(361, 4)), lambda: _mp_gegenbauer_norm_sq(7, F(361, 4))),
]


@pytest.mark.parametrize("got, want", OVERFLOW_CASES)
def test_gamma_quotients_past_overflow_match_mpmath(got, want):
    with mpmath.workdps(40):
        assert float(abs((got() - want()) / want())) < 1e-12


def test_gamma_quotients_keep_raising_off_the_positive_reals():
    # the lgamma sum needs every argument real: off the real line beta
    # still raises as the direct product does
    with pytest.raises(OverflowError):
        beta(-200.5 + 0.5j, 0.5)


def _mp_r_ell(lam1, lam2, ell):
    lam1, lam2 = _mp(lam1), _mp(lam2)
    return (mpmath.gamma(lam1 + lam2 + 2 * ell - 1) * mpmath.rgamma(lam1 - 1)
            * mpmath.rgamma(lam2 - 1) / (2 ** (2 * ell + 2) * mpmath.pi))


# a negative weight overflows Gamma of the numerator; the Gamma at the
# negative argument is negative for -3/2 and -7/3 and positive for -7/2
@pytest.mark.parametrize("lam1, lam2, ell", [
    (F(-1, 2), 300, 0), (-2.5, 250.0, 2), (F(-4, 3), F(601, 2), 1), (F(-1, 2), 180, 0),
])
def test_gamma_quotients_past_overflow_at_negative_arguments_match_mpmath(lam1, lam2, ell):
    with mpmath.workdps(40):
        want = _mp_r_ell(lam1, lam2, ell)
        assert float(abs((r_ell(lam1, lam2, ell) - want) / want)) < 1e-12


def _mp_b_const(lam):
    lam = _mp(lam)
    return 2 ** (2 - lam) * mpmath.pi * mpmath.gamma(lam - 1)


# weights up to about 1000, where b leaves the double range (b(300) is
# about 1e520); b(1/2) and b(-4/3) are negative, and so is r_ell there
@pytest.mark.parametrize("lam1, lam2, ell", [
    (F(-1, 2), 300, 0), (F(-1, 2), 300, 2), (F(1, 2), F(1999, 2), 3), (F(-4, 3), 999, 1),
    (400.25, 600.5, 3), (3, 1000, 0), (F(997, 4), F(3, 2), 2),
])
def test_log_b_const_and_log_r_ell_match_mpmath(lam1, lam2, ell):
    lam3 = lam1 + lam2 + 2 * ell
    pairs = [(log_r_ell(lam1, lam2, ell), lambda: _mp_r_ell(lam1, lam2, ell))]
    pairs += [(log_b_const(lam), lambda lam=lam: _mp_b_const(lam)) for lam in (lam1, lam2, lam3)]
    with mpmath.workdps(50):
        for (sign, log), want in pairs:
            want = want()
            assert sign == mpmath.sign(want)
            want_log = float(mpmath.log(abs(want)))
            assert abs(log - want_log) <= 1e-12 * max(1.0, abs(want_log))


def test_log_gamma_quotient_signs_and_zero():
    # (sign, log|q|) of Gamma(-1/2) / (Gamma(-3/2) * -2) and of a quotient
    # with a down pole
    sign, log = log_gamma_quotient((-0.5,), (-1.5,), (-2,))
    assert sign == 1.0 and log == pytest.approx(math.log(0.75))
    assert log_gamma_quotient((300,), (-2,), ()) == (0.0, -math.inf)
    assert log_r_ell(300, -2, 0) == (0.0, -math.inf)


def test_gamma_quotients_past_overflow_are_zero_at_a_down_pole():
    # 1/Gamma(-200) and 1/Gamma(-3) vanish, as reciprocal_gamma has them
    assert beta(-200.5, 0.5) == 0.0
    assert r_ell(300, -2, 0) == 0.0


@pytest.mark.parametrize("ell, a, b", [(1, 0.5, 1.5), (3, 2.5, -0.5), (6, 10.25, 3.0), (2, 80.0, 1.5)])
def test_gamma_quotients_below_overflow_keep_the_direct_product(ell, a, b):
    # where the direct product is finite, it is returned bit for bit
    g = complex_gamma
    num = 2.0 ** (a + b + 1) * g(ell + a + 1) * g(ell + b + 1)
    assert jacobi_norm_sq(ell, a, b) == num / ((2 * ell + a + b + 1) * g(ell + a + b + 1) * math.factorial(ell))
    assert beta(a, b) == g(a) * g(b) * reciprocal_gamma(a + b)
    num = math.pi * 2.0 ** (1 - 2 * a) * g(ell + 2 * a)
    assert gegenbauer_norm_sq(ell, a) == num / (math.factorial(ell) * (ell + a) * g(a) ** 2)
