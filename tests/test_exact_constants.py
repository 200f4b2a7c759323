"""The exact constants layer against its earlier Fraction-arithmetic form.

`c_ell_status`, `b_const`, `r_ell` and the three Jacobi folds hold exact
data as integer numerators over one denominator.  The references below are
the Fraction versions they replaced, kept verbatim but for the exact branch
of `ref_c_ell_status`, which covers every pair with an integer weight, so
that every output is pinned: the same kind, the same value and the same type
(`Fraction`, `float` or `complex`), and for float parameters the same bits.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from holobreak.rc_transform import b_const, c_ell, c_ell_status, r_ell
from holobreak.special_poly import (
    PolyOneVar,
    complex_gamma,
    is_exact,
    jacobi_inflated,
    jacobi_poly,
    jacobi_variant,
    pochhammer,
    poly_one,
    poly_two,
    reciprocal_gamma,
)

# ---------------------------------------------------------------------------
# Fraction references


def _nonpos_int(x: F) -> bool:
    return x.denominator == 1 and x <= 0


def ref_c_ell_status(lam1, lam2, ell: int):
    l1, l2 = F(lam1), F(lam2)
    n1, n2 = l1 + ell, l2 + ell
    d = l1 + l2 + ell - 1
    t = l1 + l2 + 2 * ell - 1
    num_poles = sum(1 for x in (n1, n2) if _nonpos_int(x))
    mid_zero = _nonpos_int(d) and t != 0
    if num_poles and mid_zero:
        return ("indeterminate", None)
    if num_poles:
        return ("pole", None)
    if mid_zero:
        return ("zero", F(0))
    if t == 0:
        val = (-1) ** ell * complex_gamma(float(n1)) * complex_gamma(float(n2))
        return ("nonzero", val)
    if l1.denominator == 1 or l2.denominator == 1:
        # Gamma(n_int) is a factorial; Gamma(n) / Gamma(d) steps from n to d by 1
        n, n_int = (n1, n2) if l2.denominator == 1 else (n2, n1)
        ratio, x = F(1), n
        while x < d:
            ratio /= x
            x += 1
        while x > d:
            x -= 1
            ratio *= x
        return ("nonzero", math.factorial(int(n_int) - 1) * ratio / (t * math.factorial(ell)))
    val = (
        complex_gamma(float(n1))
        * complex_gamma(float(n2))
        * reciprocal_gamma(float(d))
        / (float(t) * math.factorial(ell))
    )
    return ("nonzero", val)


def ref_b_const(lam):
    return 2.0 ** (2 - lam) * math.pi * complex_gamma(lam - 1)


def ref_r_ell(lam1, lam2, ell: int):
    lam3 = lam1 + lam2 + 2 * ell
    num = complex_gamma(lam3 - 1)
    return (
        num
        * reciprocal_gamma(lam1 - 1)
        * reciprocal_gamma(lam2 - 1)
        / (2 ** (2 * ell + 2) * math.pi)
    )


def _ref_jacobi_coeffs(ell: int, alpha, beta_) -> list:
    s = alpha + beta_ + ell + 1
    asc, desc = [pochhammer(s, 0)], [pochhammer(alpha, 0)]
    for j in range(ell):
        asc.append(asc[-1] * (s + j))
        desc.append((alpha + (ell - j)) * desc[-1])
    return [
        a * d / (math.factorial(j) * math.factorial(ell - j))
        for j, (a, d) in enumerate(zip(asc, reversed(desc)))
    ]


def ref_jacobi_poly(ell: int, alpha, beta_):
    exact = is_exact(alpha) and is_exact(beta_)
    coeffs = [F(0) if exact else 0.0] * (ell + 1)
    for j, c in enumerate(_ref_jacobi_coeffs(ell, alpha, beta_)):
        term = c / 2**j
        for m in range(j + 1):
            coeffs[m] = coeffs[m] + term * math.comb(j, m) * (-1) ** (j - m)
    return poly_one(coeffs)


def ref_jacobi_inflated(ell: int, alpha, beta_):
    m: dict = {}
    for j, c in enumerate(_ref_jacobi_coeffs(ell, alpha, beta_)):
        a_j = (-1) ** (ell - j) * c
        for k in range(ell - j + 1):
            key = (j + k, ell - j - k)
            m[key] = m.get(key, 0) + a_j * math.comb(ell - j, k)
    return poly_two(m)


def ref_jacobi_variant(ell: int, alpha, beta_):
    return poly_two({(j, ell - j): c for j, c in enumerate(_ref_jacobi_coeffs(ell, alpha, beta_))})


def outcome(f, *args):
    """What a call gives, compared by repr (kind, value and type at once),
    or the type and text of what it raises."""
    try:
        return ("value", repr(f(*args)))
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# c_ell_status

# weights with denominators 1 to 6, as ints or as Fractions
weights = st.one_of(
    st.integers(-30, 30),
    st.builds(F, st.integers(-60, 60), st.integers(1, 6)),
)


@st.composite
def weight_pairs(draw):
    """(lam1, lam2, ell), steered half the time onto the collision lines:
    t = lam1 + lam2 + 2 ell - 1 = 0, or d = lam1 + lam2 + ell - 1 a
    nonpositive integer, where zeros, poles and indeterminate points meet."""
    lam1, ell = draw(weights), draw(st.integers(0, 12))
    line = draw(st.sampled_from(["free", "free", "t=0", "d<=0"]))
    if line == "free":
        return lam1, draw(weights), ell
    d = 0 if line == "t=0" else draw(st.integers(-12, 0))
    lam2 = d - ell + 1 - lam1 if line == "d<=0" else 1 - 2 * ell - lam1
    return lam1, lam2, ell


@given(weight_pairs())
@example((2, 3, 4))  # nonzero, integer weights
@example((F(5, 2), 3, 1))  # nonzero, one integer weight: 16/273
@example((F(7, 3), -1, 2))  # nonzero, one integer weight, d below n1
@example((F(1, 2), F(3, 2), 3))  # nonzero, float value
@example((F(-5, 2), F(1, 2), 1))  # zero
@example((-2, F(1, 3), 1))  # pole
@example((-3, -2, 1))  # indeterminate
@example((F(1, 2), F(-3, 2), 1))  # t = 0
@settings(max_examples=400, deadline=None)
def test_c_ell_status_matches_fraction_reference(args):
    want = outcome(ref_c_ell_status, *args)
    event(want[1].split("'")[1] if want[0] == "value" else want[1])
    lam1, lam2, ell = args
    if lam1 + lam2 + 2 * ell - 1 == 0:
        event("t = 0")
    assert outcome(c_ell_status, *args) == want


def test_c_ell_status_grid_covers_every_kind():
    # each k/q (q = 1..6, |k/q| <= 3) against every third of them, at every
    # ell up to 12: kind, value and type (by repr) agree with the reference,
    # and every kind turns up, with t = 0 among the nonzero points
    lams = sorted({F(k, q) for q in range(1, 7) for k in range(-3 * q, 3 * q + 1)})
    kinds, t_zero = set(), 0
    for l1 in lams:
        for l2 in lams[::3]:
            for ell in range(13):
                got = c_ell_status(l1, l2, ell)
                want = ref_c_ell_status(l1, l2, ell)
                assert repr(got) == repr(want), (l1, l2, ell)
                kinds.add(got[0])
                t_zero += l1 + l2 + 2 * ell - 1 == 0
    assert kinds == {"nonzero", "zero", "pole", "indeterminate"}
    assert t_zero > 0


def test_c_ell_float_route_matches_the_exact_value():
    # at float weights c_ell is a product of gamma values; where one weight
    # is an integer, the exact value is a Fraction it must round to
    checked = 0
    for lam2 in range(-6, 13):
        for lam1 in [F(k, 2) for k in range(-13, 26)]:
            for ell in range(9):
                kind, exact = c_ell_status(lam1, F(lam2), ell)
                if kind != "nonzero":
                    continue
                assert type(exact) is F, (lam1, lam2, ell)
                got = complex(c_ell(float(lam1), float(lam2), ell))
                assert abs(got - float(exact)) <= 1e-14 * abs(exact), (lam1, lam2, ell)
                checked += 1
    assert checked > 2000


# ---------------------------------------------------------------------------
# b_const and r_ell

# integers -6..12, halves and thirds, as ints and as Fractions, and a few
# floats, which take the unchanged float path
_B_WEIGHTS = (
    list(range(-6, 13))
    + [F(k) for k in range(-6, 13)]
    + [F(k, q) for q in (2, 3) for k in range(-6 * q, 12 * q + 1) if k % q]
)
_FLOAT_WEIGHTS = [-2.5, 0.5, 1.0, 2.0, 3.25, 7.5]


def test_b_const_matches_fraction_reference():
    # the same value, bit for bit, and at the poles the same error and text
    poles = 0
    for lam in _B_WEIGHTS + _FLOAT_WEIGHTS:
        want = outcome(ref_b_const, lam)
        assert outcome(b_const, lam) == want, lam
        poles += want[0] == "raises"
    assert poles == 17  # 1, 0, ..., -6 as int and as Fraction, and 1.0
    assert outcome(b_const, F(0)) == ("raises", "PoleError", "gamma pole at Fraction(-1, 1)")


def test_r_ell_matches_fraction_reference():
    lams = _B_WEIGHTS[::2] + _FLOAT_WEIGHTS
    kinds = {"value": 0, "zero": 0, "raises": 0}
    for lam1 in lams:
        for lam2 in lams[::3]:
            for ell in range(9):
                want = outcome(ref_r_ell, lam1, lam2, ell)
                assert outcome(r_ell, lam1, lam2, ell) == want, (lam1, lam2, ell)
                if want[0] == "value" and float(want[1]) == 0.0:
                    kinds["zero"] += 1  # a reciprocal-Gamma zero
                else:
                    kinds[want[0]] += 1
    assert all(kinds.values()), kinds
    assert outcome(r_ell, F(-1, 2), F(-1, 2), 0) == (
        "raises", "PoleError", "gamma pole at Fraction(-2, 1)")


# ---------------------------------------------------------------------------
# Jacobi folds

FOLDS = [
    (jacobi_poly, ref_jacobi_poly),
    (jacobi_inflated, ref_jacobi_inflated),
    (jacobi_variant, ref_jacobi_variant),
]


@pytest.mark.parametrize("fold, ref", FOLDS, ids=[f.__name__ for f, _ in FOLDS])
@given(alpha=weights, beta_=weights, ell=st.integers(0, 12))
@example(alpha=F(1, 2), beta_=F(1, 3), ell=12)
@example(alpha=-3, beta_=F(-5, 6), ell=7)  # alpha + j + 1 hits zero
@example(alpha=F(-7, 2), beta_=F(-7, 2), ell=6)  # s = alpha + beta + ell + 1 = 0
@settings(max_examples=150, deadline=None)
def test_exact_jacobi_folds_match_fraction_reference(fold, ref, alpha, beta_, ell):
    got, want = fold(ell, alpha, beta_), ref(ell, alpha, beta_)
    assert repr(got) == repr(want)
    assert all(type(c) is F for c in _coefficients(got))


def _coefficients(poly):
    if isinstance(poly, PolyOneVar):
        return poly.coefficients
    return [c for _, c in poly.items()]


# float, complex and mixed exact/float parameters take the float path; the
# hashes are of the repr of every build over this grid, recorded from the
# Fraction-arithmetic layer, so they pin the coefficients bit for bit
_FLOATS = (-0.9, -0.5, 0.0, 0.3, 1.7, 2.5, 3.25, 0.5 + 0.25j)
_FLOAT_PAIRS = [(a, b) for a in _FLOATS for b in _FLOATS] + [
    (F(1, 2), 1.7), (2, -0.5), (1.5, F(3, 4)), (F(-1, 3), 0.5 + 0.25j)]
_FLOAT_GOLDENS = {
    "jacobi_poly": "f807fd9d79cbe100700ba0fcd84f95726cd8d77703795330f6446e05d9b762fc",
    "jacobi_inflated": "850134737393d3de35b1fc8a01115ed8481d7274ece743b8e2320ddf3b88e2a8",
    "jacobi_variant": "e1b8a327e4a28026c211bdde83cf2b9f30d7758ce8365d3013e67f708333a61c",
}


@pytest.mark.parametrize("fold", [f for f, _ in FOLDS], ids=[f.__name__ for f, _ in FOLDS])
def test_float_jacobi_folds_are_bit_identical(fold):
    h = hashlib.sha256()
    for a, b in _FLOAT_PAIRS:
        for ell in range(13):
            h.update(repr(fold(ell, a, b)).encode())
    assert h.hexdigest() == _FLOAT_GOLDENS[fold.__name__]
