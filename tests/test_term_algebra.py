"""Exact term calculus: construction, derivations, restriction, equality."""
from __future__ import annotations

import cmath
import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobreak import term_algebra
from holobreak.special_poly import DomainError, PoleError
from holobreak.term_algebra import (
    _SAMPLE_SEED,
    BasePoly,
    BranchCutError,
    ExactnessError,
    HoloSum,
    HoloTerm,
    ParseError,
    QQi,
    SingularRestrictionError,
    add,
    apply_operator,
    base_poly,
    canonical_form,
    combine,
    constant,
    default_tube_points,
    differentiate,
    equal,
    evaluate,
    from_text,
    holo_sum,
    monomial,
    qqi,
    registered_bases,
    restrict,
    scale,
    sl2_action,
    sl2_casimir,
    sub,
    term,
    times_monomial,
    to_text,
)

F = Fraction


def zeta_plus_i(arity: int, var: int):
    m = {tuple(1 if k == var else 0 for k in range(arity)): 1}
    m[(0,) * arity] = qqi(0, 1)
    return base_poly(arity, m)


def diff_base(arity: int = 2):
    # zeta1 - zeta2 in the first two slots
    e1 = tuple(1 if k == 0 else 0 for k in range(arity))
    e2 = tuple(1 if k == 1 else 0 for k in range(arity))
    return base_poly(arity, {e1: 1, e2: -1})


def ktype(lam1, lam2, ell):
    """(z1-z2)^ell (z1+i)^(-lam1-ell) (z2+i)^(-lam2-ell)."""
    return holo_sum(
        2,
        [
            term(
                2,
                1,
                (0, 0),
                [
                    (diff_base(), F(ell)),
                    (zeta_plus_i(2, 0), -F(lam1) - ell),
                    (zeta_plus_i(2, 1), -F(lam2) - ell),
                ],
            )
        ],
    )


# --- scalars ---------------------------------------------------------------


def test_gaussian_rational_arithmetic():
    a = qqi(F(1, 2), F(3, 2))
    b = qqi(2, -1)
    prod = a * b
    assert (prod.re, prod.im) == (F(5, 2), F(5, 2))
    assert a * a**-1 == qqi(1)
    assert qqi(0, 1) ** -3 == qqi(0, 1)  # i^(-3) = i
    with pytest.raises(ZeroDivisionError):
        qqi(0) ** -1


def test_scalar_mixed_degrades_to_complex():
    assert qqi(1, 1) * 0.5 == 0.5 + 0.5j


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
gaussian = st.builds(qqi, small_fractions, small_fractions)
exact_numbers = st.one_of(st.integers(-20, 20), small_fractions)
inexact_numbers = st.one_of(
    st.floats(-10, 10),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
ARITHMETIC = (operator.add, operator.sub, operator.mul)


def close(x: complex, y: complex) -> bool:
    return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


@given(gaussian, st.one_of(gaussian, exact_numbers, inexact_numbers))
@settings(max_examples=150)
def test_qqi_operators_follow_complex_arithmetic(a, b):
    assert close(complex(-a), -complex(a))
    for op in ARITHMETIC:
        assert close(complex(op(a, b)), op(complex(a), complex(b)))
        assert close(complex(op(b, a)), op(complex(b), complex(a)))


@given(gaussian, exact_numbers, inexact_numbers)
@settings(max_examples=100)
def test_qqi_exact_operands_stay_exact(a, x, y):
    for op in ARITHMETIC:
        assert isinstance(op(a, x), QQi) and isinstance(op(x, a), QQi)
        assert type(op(a, y)) is complex and type(op(y, a)) is complex


@given(gaussian, st.integers(0, 6))
@settings(max_examples=100)
def test_qqi_negative_power_inverts(a, n):
    if a:
        assert a**n * a**-n == qqi(1)
    elif n:
        with pytest.raises(ZeroDivisionError):
            a**-n


@given(gaussian)
def test_qqi_truth_is_nonzero(a):
    assert bool(a) == (complex(a) != 0)


# An exact scalar modelled in the test as its (re, im) pair of Fractions.
pairs = st.tuples(small_fractions, small_fractions)
wide_fractions = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**30)
exact_operands = st.one_of(
    pairs.map(lambda p: (qqi(*p), p)),
    exact_numbers.map(lambda x: (x, (F(x), F(0)))),
)


def model_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def model_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_pow(x, n):
    if n < 0:
        norm = x[0] * x[0] + x[1] * x[1]
        x, n = (x[0] / norm, -x[1] / norm), -n
    out = (F(1), F(0))
    for _ in range(n):
        out = model_mul(out, x)
    return out


def parts(q):
    assert isinstance(q, QQi) and type(q.re) is F and type(q.im) is F
    return (q.re, q.im)


def model_text(x) -> str:
    return str(x[0]) if x[1] == 0 else f"(c {x[0]} {x[1]})"


MODEL_OPS = ((operator.add, model_add), (operator.sub, model_sub), (operator.mul, model_mul))


@given(pairs, exact_operands)
@settings(max_examples=200)
def test_qqi_matches_fraction_pair_model(p, operand):
    a = qqi(*p)
    x, px = operand
    assert parts(a) == p
    assert parts(-a) == (-p[0], -p[1])
    results = [-a]
    for op, model in MODEL_OPS:
        got, rgot = op(a, x), op(x, a)
        assert parts(got) == model(p, px)
        assert parts(rgot) == model(px, p)
        results += [got, rgot]
    for n in range(-4, 7):
        if n < 0 and not (p[0] or p[1]):
            with pytest.raises(ZeroDivisionError):
                a**n
            continue
        got = a**n
        assert parts(got) == model_pow(p, n)
        results.append(got)
    # the text of a sum holding the results reads the model's parts
    s = HoloSum(1, tuple(HoloTerm(q, (0,), ()) for q in results))
    want = ["(sum 1"] + [f"  (term {model_text(parts(q))} (mono 0))" for q in results] + [")"]
    assert to_text(s) == "\n".join(want)


@given(pairs, pairs)
def test_qqi_equal_values_hash_equal(p, q):
    a, b = qqi(*p), qqi(*q)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    rebuilt = qqi(p[0]) + qqi(0, 1) * p[1]
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a == b) == (p == q)


@given(wide_fractions, wide_fractions)
def test_qqi_complex_is_correctly_rounded(re, im):
    z = complex(qqi(re, im))
    assert (z.real.hex(), z.imag.hex()) == (float(re).hex(), float(im).hex())


def test_qqi_is_immutable_and_equal_only_to_qqi():
    a = qqi(F(1, 2), 3)
    for name in ("re", "im", "_a", "_d"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == qqi(F(1, 2), 3)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert qqi(1) != 1 and qqi(F(1, 2)) != F(1, 2)
    assert repr(a) == "QQi(re=Fraction(1, 2), im=Fraction(3, 1))"


@pytest.mark.parametrize("re, im", [(0.1, 0), (1, 0.5), (1j, 0), (True, 0), (1, False), ("1/2", 0)])
def test_qqi_rejects_non_exact_parts(re, im):
    with pytest.raises(ExactnessError):
        qqi(re, im)
    with pytest.raises(ExactnessError):
        QQi(re, im)


# --- bases -----------------------------------------------------------------


def test_base_interning_and_registry_append_only():
    before = len(registered_bases())
    b1 = base_poly(2, {(1, 0): 1, (0, 1): -1})
    b2 = base_poly(2, {(0, 1): -1, (1, 0): 1})
    assert b1 is b2
    after = len(registered_bases())
    assert after >= before
    base_poly(2, {(1, 0): 1, (0, 1): -1})
    assert len(registered_bases()) == after


def test_base_identity_is_by_value():
    b = base_poly(2, {(1, 0): 1, (0, 1): -1, (0, 0): qqi(0, 1)})
    twin = BasePoly(b.arity, b.entries)
    assert twin is not b
    assert twin == b and hash(twin) == hash(b)
    assert base_poly(2, dict(twin.entries)) is b
    t = term(2, 1, None, [(b, F(1, 2)), (twin, F(1, 2))])
    assert len(t.bases) == 1
    assert t.bases[0][1] == 1


def test_interned_base_is_not_constructed_again(monkeypatch):
    b = zeta_plus_i(2, 0)
    f = holo_sum(2, [term(2, 1, (0, 1), [(b, F(-5, 2))])])
    restrict(f, "diagonal")  # registers z + i
    built = []
    post_init = BasePoly.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BasePoly, "__post_init__", counting)
    assert base_poly(2, {(1, 0): 1, (0, 0): qqi(0, 1)}) is b
    assert base_poly(2, {(0, 0): qqi(0, 1), (1, 0): 1, (0, 1): 0}) is b
    restrict(f, "diagonal")  # z + i is looked up, not built
    assert built == []


def test_base_derivative_is_computed_once_and_read_only():
    b = base_poly(2, {(2, 0): 1, (1, 1): qqi(0, 2), (0, 1): F(1, 2)})
    d0 = b.differentiate(0)
    assert dict(d0) == {(1, 0): qqi(2), (0, 1): qqi(0, 2)}
    assert b.differentiate(0) is d0
    assert dict(b.differentiate(1).items()) == {(1, 0): qqi(0, 2), (0, 0): qqi(F(1, 2))}
    with pytest.raises(TypeError):
        d0[(1, 0)] = qqi(5)
    assert dict(b.differentiate(0)) == {(1, 0): qqi(2), (0, 1): qqi(0, 2)}
    # a pickle holds arity and entries only; the copy is equal and derives anew
    twin = pickle.loads(pickle.dumps(b))
    assert twin == b and hash(twin) == hash(b)
    assert dict(twin.differentiate(0)) == dict(d0)


def test_sum_hash_is_computed_once():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    s = HoloSum(1, (Counted(),))
    first = hash(s)
    assert Counted.calls == 1
    assert hash(s) == first and Counted.calls == 1
    assert first == hash((1, s.terms))  # the value of the dataclass field hash
    # equal sums built apart compare and hash equal, whichever hashed first
    b = zeta_plus_i(2, 0)
    f = holo_sum(2, [term(2, F(1, 3), (1, 2), [(b, F(-7, 2))]), term(2, qqi(1, 1), (0, 0))])
    hash(f)
    g = from_text(to_text(f))
    assert g is not f and g == f and hash(g) == hash(f)
    h = copy.deepcopy(f)
    assert pickle.loads(pickle.dumps(f)) == f == h and hash(h) == hash(f)
    assert f.__getstate__() == {"arity": 2, "terms": f.terms}


@pytest.mark.parametrize("bad", [(1.5,), (0.7,), (True,), (F(2),), ("1",)])
def test_monomial_exponents_must_be_integers(bad):
    # int() would truncate 1.5 to 1 and 0.7 to 0 without a word
    with pytest.raises(DomainError):
        monomial(1, bad)
    with pytest.raises(DomainError):
        term(1, 1, bad)


@pytest.mark.parametrize("bad", [(0.7,), (False,), (np.float64(1.0),)])
def test_times_monomial_exponents_must_be_integers(bad):
    with pytest.raises(DomainError):
        times_monomial(monomial(1, (1,)), bad)


@pytest.mark.parametrize("bad", [(1.9,), (True,), (np.bool_(True),)])
def test_base_exponents_must_be_integers(bad):
    with pytest.raises(DomainError):
        base_poly(1, {bad: 1, (0,): qqi(0, 1)})


def test_numpy_integer_exponents_are_accepted():
    k = np.int64(2)
    assert to_text(monomial(2, (k, 1))) == to_text(monomial(2, (2, 1)))
    assert times_monomial(monomial(1, (1,)), (np.int32(2),)) == monomial(1, (3,))
    assert base_poly(1, {(np.int8(1),): 1, (0,): qqi(0, 1)}) is zeta_plus_i(1, 0)


def test_base_rejects_degree_three_and_zero():
    with pytest.raises(DomainError):
        base_poly(1, {(3,): 1})
    with pytest.raises(DomainError):
        base_poly(1, {(1,): 0})
    with pytest.raises(ExactnessError):
        base_poly(1, {(1,): 0.25})


# --- term normalization ----------------------------------------------------


def test_monomial_base_folds_into_monomial():
    zb = base_poly(2, {(1, 0): 1})
    t = term(2, F(2), (1, 0), [(zb, F(3))])
    assert t.monomial == (4, 0)
    assert t.bases == ()


def test_constant_base_folds_into_coefficient():
    cb = base_poly(1, {(0,): 2})
    t = term(1, F(3), (0,), [(cb, F(-2))])
    assert t.bases == ()
    assert t.coefficient == qqi(F(3, 4))


def test_duplicate_bases_merge():
    b = zeta_plus_i(1, 0)
    t = term(1, 1, (0,), [(b, F(-3)), (b, F(1))])
    assert t.bases == ((b, F(-2)),)


def test_like_terms_combine_and_zero_drops():
    b = zeta_plus_i(1, 0)
    s = holo_sum(
        1,
        [
            term(1, F(1, 2), (1,), [(b, F(-1))]),
            term(1, F(-1, 2), (1,), [(b, F(-1))]),
        ],
    )
    assert s.is_zero()


# --- differentiation -------------------------------------------------------


def test_derivative_of_monomial():
    f = monomial(1, (4,), F(1))
    df = differentiate(f, 0)
    assert equal(df, monomial(1, (3,), F(4)))


def test_derivative_of_base_power():
    lam = F(5, 2)
    b = zeta_plus_i(1, 0)
    f = holo_sum(1, [term(1, 1, (0,), [(b, -lam)])])
    want = holo_sum(1, [term(1, -lam, (0,), [(b, -lam - 1)])])
    assert equal(differentiate(f, 0), want)


def test_product_rule_with_monomial_factor():
    b = zeta_plus_i(1, 0)
    f = holo_sum(1, [term(1, 1, (2,), [(b, F(1, 2))])])
    got = differentiate(f, 0)
    want = holo_sum(
        1,
        [
            term(1, 2, (1,), [(b, F(1, 2))]),
            term(1, F(1, 2), (2,), [(b, F(-1, 2))]),
        ],
    )
    assert equal(got, want)


def test_mixed_partials_commute():
    f = ktype(F(3, 2), F(2), 2)
    d12 = differentiate(differentiate(f, 0), 1)
    d21 = differentiate(differentiate(f, 1), 0)
    assert equal(d12, d21)


def test_higher_derivative_times():
    f = monomial(1, (5,))
    assert equal(differentiate(f, 0, 3), monomial(1, (2,), F(60)))


def differentiate_by_term(f, var, times):
    """The per-term path: every derivative term normalized again by `term`."""
    for _ in range(times):
        out = []
        for t in f.terms:
            m = t.monomial[var]
            if m:
                mono = t.monomial[:var] + (m - 1,) + t.monomial[var + 1 :]
                out.append(term(f.arity, t.coefficient * m, mono, t.bases))
            for i, (b, p) in enumerate(t.bases):
                rest = t.bases[:i] + t.bases[i + 1 :]
                newbases = rest + ((b, p - 1),) if p - 1 else rest
                for e, c in b.differentiate(var).items():
                    mono = tuple(mm + ee for mm, ee in zip(t.monomial, e))
                    out.append(term(f.arity, t.coefficient * p * c, mono, newbases))
        f = holo_sum(f.arity, out)
    return f


# z1 + i, z2 + i, z1 - z2, two single monomials, a constant and two of degree 2
BASE_POOL = (
    {(1, 0): 1, (0, 0): qqi(0, 1)},
    {(0, 1): 1, (0, 0): qqi(0, 1)},
    {(1, 0): 1, (0, 1): -1},
    {(1, 1): 1},
    {(0, 1): 2},
    {(0, 0): qqi(2, 1)},
    {(2, 0): 1, (0, 1): F(1, 2), (0, 0): qqi(1, -1)},
    {(1, 0): 1, (0, 1): 1, (1, 1): qqi(0, 1)},
)
exact_exponents = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_complex = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@st.composite
def random_sums(draw, exact: bool):
    coefficients = st.one_of(gaussian, exact_numbers)
    exponents = exact_exponents
    if not exact:
        coefficients = st.one_of(coefficients, small_complex)
        exponents = st.one_of(exponents, small_complex)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.sampled_from(BASE_POOL), max_size=3))
        bases = [(base_poly(2, entries), draw(exponents)) for entries in picks]
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms.append(term(2, draw(coefficients), mono, bases))
    return holo_sum(2, terms)


@given(st.booleans().flatmap(random_sums), st.integers(0, 1), st.integers(0, 3))
@settings(max_examples=150)
def test_differentiate_matches_per_term_normalization(f, var, times):
    want = differentiate_by_term(f, var, times)
    first = differentiate(f, var, times)
    second = differentiate(f, var, times)  # read from the memo when f is exact
    assert first == second == want
    assert to_text(first) == to_text(second) == to_text(want)


def test_derivative_memo_keeps_float_exponents_apart():
    b = zeta_plus_i(1, 0)
    exact = holo_sum(1, [term(1, 1, (0,), [(b, F(2))])])
    inexact = holo_sum(1, [term(1, 1, (0,), [(b, 2 + 0j)])])
    # equal and hashing alike, so a memo keyed by value alone would mix them
    assert exact == inexact and hash(exact) == hash(inexact)
    assert to_text(differentiate(exact, 0)).endswith(" 1))\n)")
    d = differentiate(inexact, 0)
    assert to_text(d).endswith(" 1.0))\n)")
    assert [type(p) for t in d.terms for _, p in t.bases] == [complex]


# z1 + i in two fractional classes with one monomial: the exponents 5/2 and
# 7/3 sort by (numerator, denominator), not by value, while they climb down;
# (z1 - z2)^2 climbs through exponent 0 and drops, beside its own class at -1
CLASS_LADDERS = (
    holo_sum(2, [
        term(2, 1, None, [(base_poly(2, {(1, 0): 1, (0, 0): qqi(0, 1)}), F(5, 2))]),
        term(2, qqi(2, -1), None, [(base_poly(2, {(1, 0): 1, (0, 0): qqi(0, 1)}), F(7, 3))]),
        term(2, F(1, 3), (1, 0), [(base_poly(2, {(1, 0): 1, (0, 0): qqi(0, 1)}), F(-2, 3)),
                                  (base_poly(2, {(0, 1): 1, (0, 0): qqi(0, 1)}), F(3, 4))]),
    ]),
    holo_sum(2, [
        term(2, 1, (0, 1), [(base_poly(2, {(1, 0): 1, (0, 1): -1}), 2),
                            (base_poly(2, {(0, 1): 1, (0, 0): qqi(0, 1)}), F(1, 2))]),
        term(2, qqi(0, 3), None, [(base_poly(2, {(1, 0): 1, (0, 1): -1}), -1)]),
    ]),
)


@pytest.mark.parametrize("f", CLASS_LADDERS)
@pytest.mark.parametrize("var", [0, 1])
@pytest.mark.parametrize("times", range(5))
def test_class_offset_ladder_matches_per_term_path(f, var, times):
    assert to_text(differentiate(f, var, times)) == to_text(differentiate_by_term(f, var, times))


def test_derivative_memo_is_bounded():
    cache = term_algebra._lattice
    sums = [monomial(1, (k + 1,), F(k + 1, 7)) for k in range(200)]
    for f in sums:
        differentiate(f, 0)
    assert cache.cache_info().currsize <= 128
    hits = cache.cache_info().hits
    assert differentiate(sums[-1], 0) == monomial(1, (199,), F(200 * 200, 7))
    assert cache.cache_info().hits == hits + 1


def combined_pieces(f, terms, climb=differentiate):
    """The operator as one `combine` of its pieces, each climbed variable by
    variable in index order and then multiplied by its monomial, if any."""
    pieces = []
    for alpha, c, *m in terms:
        g = f
        for var, times in enumerate(alpha):
            g = climb(g, var, times)
        pieces.append((c, times_monomial(g, *m) if m else g))
    return combine(f.arity, pieces)


# the identity, a wave operator, a third-order Rankin-Cohen shape, an
# operator that names one multi-index twice, the shape of `casimir_P`, and
# rows with and without a monomial whose terms meet
OPERATORS = (
    [((0, 0), 1)],
    [((2, 0), 1), ((0, 2), -1)],
    [((3, 0), F(1, 2)), ((2, 1), qqi(0, -3)), ((1, 2), F(-7, 3)), ((0, 3), 2)],
    [((1, 1), qqi(2, 1)), ((0, 0), F(5)), ((4, 0), -1), ((1, 1), F(-1, 3))],
    [((1, 1), 1, (2, 0)), ((1, 1), -2, (1, 1)), ((1, 1), 1, (0, 2)),
     ((1, 0), F(-3), (1, 0)), ((1, 0), 3, (0, 1)), ((0, 1), F(5, 2), (1, 0)),
     ((0, 1), F(-5, 2), (0, 1))],
    [((1, 0), qqi(0, 1), (1, 0)), ((0, 0), 2), ((2, 0), F(-1, 2), (2, 0)), ((0, 0), -2, (0, 0))],
)


@pytest.mark.parametrize("f", CLASS_LADDERS)
@pytest.mark.parametrize("terms", OPERATORS)
def test_apply_operator_matches_combined_pieces(f, terms):
    got = to_text(apply_operator(f, terms))
    assert got == to_text(combined_pieces(f, terms))
    assert got == to_text(combined_pieces(f, terms, differentiate_by_term))


counts = st.tuples(st.integers(0, 3), st.integers(0, 3))
coefficients = st.one_of(gaussian, exact_numbers, small_complex)
operators = st.lists(
    st.one_of(st.tuples(counts, coefficients), st.tuples(counts, coefficients, counts)),
    max_size=4,
)


@given(st.booleans().flatmap(random_sums), operators)
@settings(max_examples=100)
def test_apply_operator_matches_combined_pieces_on_random_sums(f, terms):
    assert to_text(apply_operator(f, terms)) == to_text(combined_pieces(f, terms))


@pytest.mark.parametrize("alpha", [(1,), (1, 0, 0), (-1, 2), (1.5, 0), (True, 0)])
def test_apply_operator_rejects_bad_counts(alpha):
    with pytest.raises(DomainError):
        apply_operator(monomial(2, (3, 3)), [((0, 0), 1), (alpha, 1)])
    with pytest.raises(DomainError):
        apply_operator(monomial(2, (3, 3)), [((0, 0), 1), ((1, 0), 1, alpha)])


def test_apply_operator_rejects_a_row_of_four():
    with pytest.raises(TypeError):
        apply_operator(monomial(2, (3, 3)), [((1, 0), 1, (0, 1), (1, 0))])


def test_float_twin_never_enters_the_lattice():
    b = zeta_plus_i(1, 0)
    exact = holo_sum(1, [term(1, 1, (0,), [(b, F(3))])])
    twin = holo_sum(1, [term(1, 1, (0,), [(b, 3 + 0j)])])
    assert exact == twin and hash(exact) == hash(twin)
    want = to_text(differentiate(exact, 0, 2))  # the exact sum's lattice is kept
    info = term_algebra._lattice.cache_info()
    got = [differentiate(twin, 0, 2), apply_operator(twin, [((2,), 1)])]
    assert term_algebra._lattice.cache_info() == info
    assert want.endswith(" 1))\n)")
    for d in got:
        assert to_text(d).endswith(" 1.0))\n)") and to_text(d) != want
        assert [type(p) for t in d.terms for _, p in t.bases] == [complex]


@pytest.mark.parametrize("var, times", [(0, -1), (True, 1), (0, True), (0.0, 1), (0, 1.0)])
def test_differentiate_rejects_non_count_arguments(var, times):
    with pytest.raises(DomainError):
        differentiate(monomial(2, (3, 3)), var, times)


def test_differentiate_zero_times_returns_the_sum():
    f = monomial(2, (3, 3))
    assert differentiate(f, 1, 0) is f


def test_cached_base_power_is_immutable():
    b = zeta_plus_i(1, 0)
    cube = term_algebra._expand_base_power(b, 3)
    assert isinstance(cube, tuple)
    with pytest.raises(TypeError):
        cube[0] = ((0,), qqi(5))
    assert term_algebra._expand_base_power(b, 3) is cube
    # (z + i)^3 = z^3 + 3i z^2 - 3z - i
    assert dict(cube) == {(3,): qqi(1), (2,): qqi(0, 3), (1,): qqi(-3), (0,): qqi(0, -1)}


# --- restriction -----------------------------------------------------------


def test_restrict_last_zero_kills_positive_monomial():
    f = add(monomial(3, (1, 0, 2)), monomial(3, (2, 1, 0), F(7)))
    r = restrict(f, "last-zero")
    assert equal(r, monomial(2, (2, 1), F(7)))


def test_restrict_last_zero_substitutes_bases():
    q = base_poly(3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1})
    f = holo_sum(3, [term(3, 1, (0, 0, 0), [(q, F(-2))])])
    r = restrict(f, "last-zero")
    q2 = base_poly(2, {(2, 0): 1, (0, 2): -1})
    assert equal(r, holo_sum(2, [term(2, 1, (0, 0), [(q2, F(-2))])]))


def test_restrict_diagonal_merges_tube_bases():
    f = ktype(F(2), F(3), 0)
    r = restrict(f, "diagonal")
    b = zeta_plus_i(1, 0)
    assert equal(r, holo_sum(1, [term(1, 1, (0,), [(b, F(-5))])]))


def test_restrict_diagonal_kills_positive_power_of_vanishing_base():
    f = ktype(F(2), F(3), 2)
    assert restrict(f, "diagonal").is_zero()


def test_restrict_singular_exponent_raises():
    f = holo_sum(2, [term(2, 1, (0, 0), [(diff_base(), F(-1))])])
    with pytest.raises(SingularRestrictionError):
        restrict(f, "diagonal")
    g = holo_sum(2, [term(2, 1, (0, 0), [(diff_base(), F(1, 2))])])
    with pytest.raises(SingularRestrictionError):
        restrict(g, "diagonal")


@pytest.mark.parametrize("powers", [(F(1, 2), F(2)), (F(2), F(1, 2)), (F(3), F(-1))])
def test_restrict_raises_whatever_the_base_order(powers):
    # 2 z1 - 2 z2 sorts before z1 - z2; both vanish on the diagonal, and a
    # refused power on either raises, beside a positive power on the other
    twice = base_poly(2, {(1, 0): 2, (0, 1): -2})
    for bases in ([(diff_base(), powers[0]), (twice, powers[1])],
                  [(diff_base(), powers[1]), (twice, powers[0])]):
        with pytest.raises(SingularRestrictionError):
            restrict(holo_sum(2, [term(2, 1, (0, 0), bases)]), "diagonal")


def test_restrict_judges_bases_even_where_the_monomial_vanishes():
    # z2 * z2^(-3/2) is z2^(-1/2), singular at z2 = 0, though its monomial
    # alone would vanish there; a base that does not vanish leaves the term
    # to its monomial
    z2 = base_poly(2, {(0, 1): 1})
    f = holo_sum(2, [term(2, 1, (0, 1), [(z2, F(-3, 2))])])
    with pytest.raises(SingularRestrictionError):
        restrict(f, "last-zero")
    g = holo_sum(2, [term(2, 1, (0, 1), [(zeta_plus_i(2, 0), F(-1, 2))])])
    assert restrict(g, "last-zero").is_zero()


def test_restrict_kills_positive_powers_of_two_vanishing_bases():
    twice = base_poly(2, {(1, 0): 2, (0, 1): -2})
    f = holo_sum(2, [term(2, 1, (1, 0), [(diff_base(), F(2)), (twice, F(3)),
                                         (zeta_plus_i(2, 0), F(-5, 2))])])
    assert restrict(f, "diagonal").is_zero()


def test_prune_drops_only_what_restriction_must_kill():
    z1i, twice = zeta_plus_i(2, 0), base_poly(2, {(1, 0): 2, (0, 1): -2})
    doomed = term(2, 1, (0, 0), [(diff_base(), F(3)), (z1i, F(-2))])
    reached = term(2, 2, (0, 0), [(diff_base(), F(2)), (z1i, F(-2))])
    refused = term(2, 3, (0, 0), [(diff_base(), F(3)), (twice, F(1, 2))])
    plain = term(2, 4, (1, 0), [(z1i, F(-1, 2))])
    f = holo_sum(2, [doomed, reached, refused, plain])
    # the root state of a depth-2 diagonal lattice is f without the one term
    # that two passes cannot save; at depth 3 nothing is doomed
    for depth, kept in ((2, [reached, refused, plain]), (3, [doomed, reached, refused, plain])):
        lattice = term_algebra._Lattice(f, "diagonal", depth)
        assert lattice.rebuild(lattice.state((0, 0))) == holo_sum(2, kept)
    rows = [((2, 0), 1), ((1, 1), F(-3, 2)), ((0, 2), qqi(0, 1)), ((1, 0), 5, (0, 1))]
    saved = holo_sum(2, [doomed, reached, plain])
    assert not restrict(apply_operator(saved, rows), "diagonal").is_zero()
    assert to_text(apply_operator(saved, rows, "diagonal")) == to_text(
        restrict(apply_operator(saved, rows), "diagonal"))
    with pytest.raises(SingularRestrictionError):
        apply_operator(f, rows, "diagonal")


# z3, z2 z3 - 3 z3 and z3^2 + i z1 z3 vanish at z3 = 0; z1 + i, z2 + z3 + 2i
# and z1^2 - z2^2 - z3^2 do not
LAST_ZERO_VANISHING = tuple(base_poly(3, m) for m in (
    {(0, 0, 1): 1}, {(0, 1, 1): 1, (0, 0, 1): -3}, {(0, 0, 2): 1, (1, 0, 1): qqi(0, 1)}))
LAST_ZERO_STAYING = tuple(base_poly(3, m) for m in (
    {(1, 0, 0): 1, (0, 0, 0): qqi(0, 1)}, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): qqi(0, 2)},
    {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1}))


@st.composite
def last_zero_sums(draw):
    # mostly nonnegative integer powers of the bases that vanish at z3 = 0,
    # now and then one that restriction must refuse; fractional powers on
    # the others
    vanishing_exp = st.one_of(st.integers(0, 4), st.integers(0, 4),
                              st.sampled_from([F(1, 2), F(-1), F(-5, 3)]))
    terms = [term(3, 1, None, [(LAST_ZERO_VANISHING[1], F(2))])]  # one base vanishes
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.sampled_from(LAST_ZERO_VANISHING), unique=True, max_size=2))
        bases = [(b, draw(vanishing_exp)) for b in picks]
        for b in draw(st.lists(st.sampled_from(LAST_ZERO_STAYING), unique=True, max_size=2)):
            bases.append((b, F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3])))))
        mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
        terms.append(term(3, draw(gaussian), mono, bases))
    return holo_sum(3, terms)


three_counts = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3))
three_variable_operators = st.lists(
    st.one_of(st.tuples(three_counts, gaussian), st.tuples(three_counts, gaussian, three_counts)),
    min_size=1, max_size=4,
)


@given(last_zero_sums(), three_variable_operators)
@settings(max_examples=80, deadline=None)
def test_pruning_lattice_matches_restricting_afterwards_at_last_zero(f, rows):
    want = outcome(lambda: to_text(restrict(apply_operator(f, rows), "last-zero")))
    assert outcome(lambda: to_text(apply_operator(f, rows, "last-zero"))) == want


@pytest.mark.parametrize("f, kind", [
    (monomial(1, (2,)), "diagonal"), (monomial(3, (1, 1, 1)), "diagonal"),
    (monomial(2, (1, 1)), "first-zero"), (monomial(2, (1, 1)), ["diagonal"]),
    (constant(0, 1), "last-zero"),
])
def test_apply_operator_checks_the_restriction_before_any_pass(monkeypatch, f, kind):
    with pytest.raises(DomainError) as want:
        restrict(f, kind)
    monkeypatch.setattr(term_algebra._Lattice, "_pass", None)
    monkeypatch.setattr(term_algebra, "differentiate", None)
    with pytest.raises(DomainError) as got:
        apply_operator(f, [((1,) * f.arity, 1)], kind)
    assert str(got.value) == str(want.value)


def test_restrict_base_becoming_constant_folds():
    b = base_poly(2, {(0, 1): 1, (0, 0): 2})  # z2 + 2
    f = holo_sum(2, [term(2, 1, (1, 0), [(b, F(-2))])])
    r = restrict(f, "last-zero")
    assert equal(r, monomial(1, (1,), F(1, 4)))


def test_restrict_diagonal_constant_base_fractional_exponent():
    b = base_poly(2, {(1, 0): 1, (0, 1): -1, (0, 0): qqi(-2, 2)})  # z1 - z2 - 2 + 2i
    f = holo_sum(2, [term(2, 3, (1, 1), [(b, F(1, 3))])])
    (t,) = restrict(f, "diagonal").terms
    assert t.monomial == (2,) and t.bases == ()
    assert isinstance(t.coefficient, complex)
    # the principal cube root of -2 + 2i = sqrt 8 e^(3 pi i / 4) is 1 + i
    assert abs(t.coefficient - (3 + 3j)) < 1e-14


def test_restrict_diagonal_constant_base_negative_integer_exponent():
    b = base_poly(2, {(1, 0): 1, (0, 1): -1, (0, 0): qqi(1, 1)})  # z1 - z2 + 1 + i
    f = holo_sum(2, [term(2, 3, (1, 1), [(b, F(-2))])])
    (t,) = restrict(f, "diagonal").terms
    assert t.monomial == (2,) and t.bases == ()
    assert t.coefficient == qqi(0, F(-3, 2))  # 3 / (1 + i)^2 = 3 / (2i)


@pytest.mark.parametrize("p", [F(1, 2), F(-1, 2)])
def test_restrict_diagonal_constant_base_on_the_cut(p):
    # z1 - z2 - 2 restricts to the exact constant -2: its principal power is
    # |2|^p e^(i pi p), with no cut guard (i sqrt 2 at p = 1/2)
    b = base_poly(2, {(1, 0): 1, (0, 1): -1, (0, 0): -2})
    f = holo_sum(2, [term(2, 1, (0, 0), [(b, p)])])
    (t,) = restrict(f, "diagonal").terms
    assert t.monomial == (0,) and t.bases == ()
    want = 2 ** float(p) * complex(math.cos(math.pi * p), math.sin(math.pi * p))
    assert abs(t.coefficient - want) < 1e-15
    if p == F(1, 2):
        assert abs(t.coefficient - 1j * math.sqrt(2)) < 1e-15


def test_restrict_rejects_bad_kind_and_arity():
    f = monomial(2, (1, 0))
    with pytest.raises(DomainError, match="unknown restriction 'sideways'"):
        restrict(f, "sideways")
    with pytest.raises(DomainError, match="diagonal restriction needs arity 2"):
        restrict(monomial(3, (1, 0, 0)), "diagonal")
    with pytest.raises(DomainError, match="nothing to restrict"):
        restrict(restrict(monomial(1, (0,)), "last-zero"), "last-zero")


# --- evaluation ------------------------------------------------------------


def test_evaluate_frozen_value():
    b = zeta_plus_i(1, 0)
    f = holo_sum(1, [term(1, 2, (1,), [(b, F(-2))])])
    got = evaluate(f, (1j,))
    assert abs(got - (-0.5j)) < 1e-15


def test_evaluate_branch_cut_guard():
    zb = base_poly(1, {(1,): 1})
    f = holo_sum(1, [term(1, 1, (0,), [(zb, F(1, 2))])])
    with pytest.raises(BranchCutError):
        evaluate(f, (-1.0,))
    # just off the cut is fine
    evaluate(f, (-1.0 + 1e-6j,))


def test_evaluate_pole_guard():
    zb = base_poly(1, {(1,): 1})
    f = holo_sum(1, [term(1, 1, (0,), [(zb, F(-1))])])
    with pytest.raises(PoleError):
        evaluate(f, (0.0,))


def test_evaluate_rejects_non_finite_values():
    big = holo_sum(1, [term(1, 1e300, (1,))])
    with pytest.raises(DomainError, match=r"value \(inf\+0j\) at \(1e\+200,\) is not finite"):
        evaluate(big, (1e200,))
    # the real part of the product is inf - inf
    tilted = holo_sum(1, [term(1, complex(1e300, 1e300), (1,))])
    with pytest.raises(DomainError, match=r"value \(nan\+infj\) at .* is not finite"):
        evaluate(tilted, (complex(1e200, 1e200),))
    # two sides that both overflow are not equal by sampling
    with pytest.raises(DomainError, match="is not finite"):
        equal(big, big, "sampled", points=[(1e200,)])
    assert evaluate(big, (0.5,)) == 5e299
    # (1e200 i)^3 raises OverflowError inside Python's complex power; the
    # array path hands that point to the one-point path, which names it
    cube = monomial(1, (3,))
    with pytest.raises(DomainError, match=r"value at \(1e\+200j,\) is not finite"):
        evaluate(cube, (1e200j,))
    with pytest.raises(DomainError, match=r"value at \(1e\+200j,\) is not finite"):
        evaluate(cube, (np.array([2.0, 1e200j]),))
    assert abs(evaluate(cube, (1e100j,)) + 1e300j) < 1e286
    assert np.allclose(evaluate(cube, (np.array([2.0, 1e100j]),)), [8, -1e300j], rtol=1e-14)


def reference_principal_power(b: complex, p) -> complex:
    """The one-point power as it stood before the array path, kept verbatim."""
    if isinstance(p, Fraction) and p.denominator == 1:
        n = int(p)
        if b == 0:
            if n > 0:
                return 0j
            raise PoleError("zero base under non-positive integer power")
        return b**n
    pe = float(p) if isinstance(p, Fraction) else complex(p)
    if b == 0:
        re = pe if isinstance(pe, float) else pe.real
        if re > 0:
            return 0j
        raise PoleError("zero base under non-positive-real-part power")
    if abs(abs(cmath.phase(b)) - math.pi) < 1e-10:
        raise BranchCutError(
            f"argument of {b!r} within 1e-10 of the principal cut"
        )
    return b**pe


def reference_evaluate(f: HoloSum, point) -> complex:
    """One-point evaluation as it stood before the array path: every base
    value and power recomputed for every term.  Kept verbatim but for one
    contract `evaluate` states: a complex power past the double range raises
    DomainError naming the point, not a bare OverflowError."""
    if len(point) != f.arity:
        raise DomainError("point arity mismatch")
    pt = tuple(complex(z) for z in point)
    total = 0j
    try:
        for t in f.terms:
            v = complex(t.coefficient)
            for z, m in zip(pt, t.monomial):
                if m:
                    v = v * z**m
            for b, p in t.bases:
                v = v * reference_principal_power(b.evaluate(pt), p)
            total += v
    except OverflowError as exc:
        raise DomainError(f"value at {pt!r} is not finite: {exc}") from None
    if not cmath.isfinite(total):
        raise DomainError(f"value {total!r} at {point!r} is not finite")
    return total


def reference_sampled_equal(f: HoloSum, g: HoloSum, tol: float, pts) -> bool:
    """Sampled equality as it stood before the array path, kept verbatim."""
    for pt in pts:
        fv = evaluate(f, pt)
        gv = evaluate(g, pt)
        scale_ = max(abs(fv), abs(gv))
        if scale_ < 1e-14:
            continue
        if abs(fv - gv) / scale_ > tol:
            return False
    return True


def outcome(fn, *args):
    """fn's value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


# the first coordinate anywhere in |z| <= 2, the second offset from its real
# part by values on, near and off the real axis, so that bases such as
# z1 - z2 and z2 + i meet their zeros and the cut
plane_points = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        st.sampled_from([1j, 0.5j, 0j, -1, -1 + 1e-12j, 1 + 0.3j]),
    ).map(lambda pair: (pair[0], pair[1] + pair[0].real)),
    min_size=1,
    max_size=6,
)


@given(st.booleans().flatmap(random_sums), plane_points)
@settings(max_examples=100, deadline=None)
def test_scalar_evaluate_is_bit_identical_to_the_reference(f, pts):
    for pt in pts:
        got, want = outcome(evaluate, f, pt), outcome(reference_evaluate, f, pt)
        assert repr(got) == repr(want)


def test_scalar_evaluate_is_bit_identical_on_operator_outputs():
    # sums in which many terms share their base values and powers
    f = sl2_casimir((F(5, 2), F(3)), ktype(F(5, 2), F(3), 4))
    for g in (f, differentiate(f, 0, 2)):
        assert len(g.terms) > 5
        for pt in default_tube_points(2, 5):
            assert repr(evaluate(g, pt)) == repr(reference_evaluate(g, pt))


@given(st.booleans().flatmap(random_sums), plane_points)
@settings(max_examples=100, deadline=None)
def test_array_evaluate_matches_each_point(f, pts):
    columns = tuple(np.array(pts).T)
    each = [outcome(evaluate, f, pt) for pt in pts]
    failed = [o for o in each if isinstance(o, tuple)]
    got = outcome(evaluate, f, columns)
    if failed:
        # the first point that raises one at a time raises for the arrays
        assert got == failed[0]
        return
    assert isinstance(got, np.ndarray) and got.shape == (len(pts),)
    for pt, value, want in zip(pts, got.tolist(), each):
        size = sum(abs(evaluate(HoloSum(f.arity, (t,)), pt)) for t in f.terms)
        assert abs(value - want) <= 1e-12 * size


def test_array_evaluate_broadcasts_coordinates():
    f = ktype(F(2), F(5, 2), 2)
    z1 = np.array([[0.1 + 1j], [-0.3 + 0.7j]])
    z2 = np.array([0.2 + 0.5j, 1.2j, -0.5 + 1j])
    got = evaluate(f, (z1, z2))
    assert got.shape == (2, 3) and got.dtype == complex
    for i, j in np.ndindex(2, 3):
        want = evaluate(f, (z1[i, 0].item(), z2[j].item()))
        assert abs(got[i, j] - want) <= 1e-13 * abs(want)
    # a scalar coordinate broadcasts against an array one
    row = evaluate(f, (0.1 + 1j, z2))
    assert np.allclose(row, got[0], rtol=1e-13, atol=0)


def _cut_and_pole():
    """z^(1/2) + z^(-1): a pole at 0, the cut on the negative axis."""
    zb = base_poly(1, {(1,): 1})
    return holo_sum(1, [term(1, 1, (0,), [(zb, F(1, 2))]), term(1, 1, (0,), [(zb, F(-1))])])


@pytest.mark.parametrize("grid, first", [
    ([[1j, 0.0], [-1.0, 1j]], 0.0),
    ([[1j, -1.0], [0.0, 1j]], -1.0),
    ([[1j, -2.0 - 1e-11j], [1j, 1j]], -2.0 - 1e-11j),
])
def test_array_evaluate_raises_as_the_first_bad_point(grid, first):
    f = _cut_and_pole()
    with pytest.raises((PoleError, BranchCutError)) as array_error:
        evaluate(f, (np.array(grid),))
    with pytest.raises(type(array_error.value)) as point_error:
        evaluate(f, (first,))
    assert str(array_error.value) == str(point_error.value)


def test_array_evaluate_takes_points_near_a_test_one_at_a_time(monkeypatch):
    zb = base_poly(1, {(1,): 1})
    shifted = base_poly(1, {(1,): 1, (0,): -1})
    f = holo_sum(1, [term(1, 1, (0,), [(zb, F(1, 2))]), term(1, 1, (0,), [(shifted, F(-2))])])
    # 1.00005e-10 from the cut, just outside the 1e-10 test but inside its
    # slack; and 1e-13 from the zero of z - 1 under a negative power
    near_cut, near_zero = complex(-4.0, 4.0002e-10), complex(1.0, 1e-13)
    pts = [1j, near_cut, near_zero, 2j]
    one_point = []

    def recording(g, point):
        if not isinstance(point[0], np.ndarray):
            one_point.append(point)
        return evaluate(g, point)

    monkeypatch.setattr(term_algebra, "evaluate", recording)
    got = term_algebra.evaluate(f, (np.array(pts),))
    monkeypatch.undo()
    assert one_point == [(near_cut,), (near_zero,)]
    assert repr(got[1].item()) == repr(evaluate(f, (near_cut,)))
    assert repr(got[2].item()) == repr(evaluate(f, (near_zero,)))
    big = holo_sum(1, [term(1, 1e300, (1,))])
    with pytest.raises(DomainError) as array_error:
        evaluate(big, (np.array([0.5, 1e200, -1e200]),))
    with pytest.raises(DomainError) as point_error:
        evaluate(big, (1e200,))
    assert str(array_error.value) == str(point_error.value)


@given(
    st.booleans().flatmap(random_sums),
    st.booleans().flatmap(random_sums),
    plane_points,
    st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]),
)
@settings(max_examples=50, deadline=None)
def test_sampled_equal_gives_the_reference_answer(f, g, pts, tol):
    for h in (g, scale(f, 1 + tol / 4), scale(f, 1 + 4 * tol)):
        assert outcome(equal, f, h, "sampled", tol, pts) == outcome(
            reference_sampled_equal, f, h, tol, pts)


def test_sampled_equal_finds_a_mismatch_before_a_point_that_raises():
    zb = base_poly(1, {(1,): 1})
    f = holo_sum(1, [term(1, 1, (0,), [(zb, F(1, 2))])])
    g = scale(f, F(2))
    assert not equal(f, g, "sampled", points=[(1j,), (-1.0,)])
    with pytest.raises(BranchCutError):
        equal(f, g, "sampled", points=[(-1.0,), (1j,)])
    # points where both sides are below 1e-14 are skipped
    tiny = [(1e-30 + 1e-30j,)]
    assert equal(f, scale(f, F(3)), "sampled", points=tiny) == reference_sampled_equal(
        f, scale(f, F(3)), 1e-9, tiny)
    assert equal(f, g, "sampled", points=iter([(1j,)])) is False


# --- equality --------------------------------------------------------------


def test_exact_equality_uses_power_reduction():
    b = zeta_plus_i(1, 0)
    # (z + i) * (z+i)^(-3) == (z+i)^(-2), with the product arriving expanded
    lhs = holo_sum(
        1,
        [
            term(1, 1, (1,), [(b, F(-3))]),
            term(1, qqi(0, 1), (0,), [(b, F(-3))]),
        ],
    )
    rhs = holo_sum(1, [term(1, 1, (0,), [(b, F(-2))])])
    assert equal(lhs, rhs)
    assert not equal(lhs, scale(rhs, F(2)))


def test_exact_equality_expands_positive_powers_fully():
    b = diff_base()
    lhs = holo_sum(2, [term(2, 1, (0, 0), [(b, F(2))])])
    rhs = holo_sum(
        2,
        [
            monomial(2, (2, 0)).terms[0],
            term(2, F(-2), (1, 1)),
            monomial(2, (0, 2)).terms[0],
        ],
    )
    assert equal(lhs, rhs)


def test_exact_mode_rejects_floats():
    f = constant(1, 0.5)
    with pytest.raises(ExactnessError):
        equal(f, f, mode="exact")


def test_sampled_equality():
    f = ktype(F(2), F(2), 1)
    g = scale(f, 1.0 + 1e-6)
    assert equal(f, g, mode="sampled", tol=1e-4)
    assert not equal(f, g, mode="sampled", tol=1e-8)
    assert len(default_tube_points(2)) == 20
    assert default_tube_points(2) == default_tube_points(2)


def test_tube_points_draw_from_a_given_rng():
    rng = random.Random(_SAMPLE_SEED)
    first = default_tube_points(2, 5, rng)
    assert first == default_tube_points(2, 5)
    second = default_tube_points(2, 5, rng)
    assert second != first
    assert second == default_tube_points(2, 10)[5:]


def test_canonical_form_empty_iff_zero():
    f = ktype(F(2), F(3), 1)
    assert canonical_form(sub(f, f)) == {}
    assert canonical_form(f) != {}


# --- sl2 and casimir -------------------------------------------------------


@pytest.mark.parametrize("lam", [F(2), F(5, 2), F(-1, 3)])
@pytest.mark.parametrize("power", [0, 1, 3])
def test_casimir_scalar_on_polynomials(lam, power):
    f = monomial(1, (power,))
    got = sl2_casimir((lam,), f)
    want = scale(f, lam * (lam - 2) / 8)
    assert equal(got, want)


def test_casimir_scalar_on_ktype_vector():
    lam = F(7, 3)
    b = zeta_plus_i(1, 0)
    f = holo_sum(1, [term(1, 1, (0,), [(b, -lam - 2)])])
    got = sl2_casimir((lam,), f)
    assert equal(got, scale(f, lam * (lam - 2) / 8))


def test_sl2_h_action_on_ktype():
    # (z+i)^(-lam) has H-weight -lam shifted by the lowering structure:
    # check H f = -lam f - 2 z f'
    lam = F(3)
    b = zeta_plus_i(1, 0)
    f = holo_sum(1, [term(1, 1, (0,), [(b, -lam)])])
    got = sl2_action("H", (lam,), f)
    df = differentiate(f, 0)
    want = add(scale(f, -lam), scale(times_monomial(df, (1,)), F(-2)))
    assert equal(got, want)


@pytest.mark.parametrize(
    "lam1,lam2,ell",
    [(F(2), F(2), 0), (F(3, 2), F(5, 2), 1), (F(1), F(4), 2)],
)
def test_diag_casimir_scalar_on_embedded_ktype(lam1, lam2, ell):
    lam3 = lam1 + lam2 + 2 * ell
    f = ktype(lam1, lam2, ell)
    got = sl2_casimir((lam1, lam2), f)
    assert equal(got, scale(f, lam3 * (lam3 - 2) / 8))


def test_sl2_action_and_casimir_need_one_weight_per_variable():
    f1, f2 = ktype(F(2), F(3), 0), monomial(1, (2,))
    for f, bad in ((f1, (F(2),)), (f1, (F(2), F(3), 1)), (f2, (1, 2)), (f2, ()),
                   (f1, F(2)), (f2, 2.5), (f2, 1 + 1j)):
        with pytest.raises(DomainError, match="one weight per variable"):
            sl2_action("H", bad, f)
        with pytest.raises(DomainError, match="one weight per variable"):
            sl2_casimir(bad, f)
    for gen in ("E", "h", None):
        with pytest.raises(DomainError, match="unknown sl2 generator"):
            sl2_action(gen, (F(2),), f2)


def test_combine_normalizes_one_linear_combination():
    f = ktype(F(5, 2), F(3), 1)
    g = holo_sum(2, [term(2, F(1, 3), (2, 1)), term(2, 1, (1, 0), [(zeta_plus_i(2, 1), F(-3, 2))])])
    h = times_monomial(g, (0, 1))
    got = combine(2, [(F(2), f), (qqi(0, 1), g), (-3, h)])
    want = add(add(scale(f, F(2)), scale(g, qqi(0, 1))), scale(h, -3))
    assert to_text(got) == to_text(want)
    assert to_text(combine(2, [(1, g), (-1, g)])) == to_text(holo_sum(2, []))
    with pytest.raises(DomainError):
        combine(2, [(1, monomial(1, (1,)))])


def test_times_monomial_shifts_every_term():
    g = holo_sum(2, [term(2, F(1, 3), (2, 1)), term(2, 1, (1, 0), [(zeta_plus_i(2, 1), F(-3, 2))])])
    got = times_monomial(g, (1, 2))
    assert [t.monomial for t in got.terms] == [(2, 2), (3, 3)]
    assert [t.coefficient for t in got.terms] == [t.coefficient for t in g.terms]
    assert to_text(got) == to_text(holo_sum(2, got.terms))
    for bad in ((1,), (0, -1)):
        with pytest.raises(DomainError):
            times_monomial(g, bad)


# outputs recorded for one float and one complex weight: index 0 is
# (2.3, 1.7) for the pair and 2.3 for one variable, index 1 is
# (1.3+0.4j, 2.1-0.7j) and 1.3+0.4j.  Every float of the text is pinned, so
# the order in which like terms are summed is pinned too.
SL2_TEXT = {
    ("pair", "H", 0): [
        '(sum 2',
        '  (term -6.0 (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3 (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term -3.333333333333333 (mono 2 1))',
        '  (term -2.8571428571428568 (mono 3 0))',
        ')',
    ],
    ("pair", "X", 0): [
        '(sum 2',
        '  (term -1 (mono 0 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3/2 (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term -2/3 (mono 1 1))',
        '  (term -25/21 (mono 2 0))',
        ')',
    ],
    ("pair", "Y", 0): [
        '(sum 2',
        '  (term 1.7 (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term -3/2 (mono 1 2) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term 3.3 (mono 2 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 0.8999999999999999 (mono 2 2))',
        '  (term 1.919047619047619 (mono 3 1))',
        '  (term 1.5142857142857142 (mono 4 0))',
        ')',
    ],
    ("pair", "casimir", 0): [
        '(sum 2',
        '  (term -0.85 (mono 0 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3/4 (mono 0 2) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term 1.8500000000000005 (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term -3.225 (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term -0.8999999999999999 (mono 1 2))',
        '  (term 2.4749999999999996 (mono 2 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term 1.221428571428571 (mono 2 1))',
        '  (term 0.297619047619047 (mono 3 0))',
        ')',
    ],
    ("pair", "H", 1): [
        '(sum 2',
        '  (term (c -5.4 0.29999999999999993) (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3 (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term (c -3.1333333333333333 0.09999999999999998) (mono 2 1))',
        '  (term (c -2.685714285714286 0.08571428571428569) (mono 3 0))',
        ')',
    ],
    ("pair", "X", 1): [
        '(sum 2',
        '  (term -1 (mono 0 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3/2 (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term -2/3 (mono 1 1))',
        '  (term -25/21 (mono 2 0))',
        ')',
    ],
    ("pair", "Y", 1): [
        '(sum 2',
        '  (term (c 2.1 -0.7) (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term -3/2 (mono 1 2) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term (c 2.3 0.4) (mono 2 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term (c 1.0333333333333332 -0.2333333333333333) (mono 2 2))',
        '  (term (c 1.6999999999999997 -0.06666666666666665) (mono 3 1))',
        '  (term (c 1.2285714285714286 0.11428571428571428) (mono 4 0))',
        ')',
    ],
    ("pair", "casimir", 1): [
        '(sum 2',
        '  (term (c -1.05 0.35) (mono 0 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term 3/4 (mono 0 2) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term (c 1.6337500000000007 -0.5299999999999999) (mono 1 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -3/2))',
        '  (term (c -2.4750000000000005 -0.29999999999999993) (mono 1 1) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term (c -1.0333333333333332 0.2333333333333333) (mono 1 2))',
        '  (term (c 1.725 0.30000000000000004) (mono 2 0) (pow (base ((0 0) (c 0 1)) ((0 1) 1)) -5/2))',
        '  (term (c 0.8779166666666671 0.07333333333333333) (mono 2 1))',
        '  (term (c 0.5167857142857146 -0.4180952380952381) (mono 3 0))',
        ')',
    ],
    ("one", "casimir", 0): [
        '(sum 1',
        '  (term 0.08625000000000016 (mono 1) (pow (base ((0) (c 0 1)) ((1) 1)) -5/2))',
        '  (term 0.028750000000000053 (mono 2))',
        ')',
    ],
    ("one", "casimir", 1): [
        '(sum 1',
        '  (term (c -0.1337499999999998 0.02999999999999997) (mono 1) (pow (base ((0) (c 0 1)) ((1) 1)) -5/2))',
        '  (term (c -0.04458333333333342 0.009999999999999981) (mono 2))',
        ')',
    ],
}


@pytest.mark.parametrize("key", list(SL2_TEXT), ids=str)
def test_sl2_actions_and_casimirs_text_pinned(key):
    vars_, op, i = key
    g2 = holo_sum(2, [
        term(2, F(1, 3), (2, 1)),
        term(2, F(2, 7), (3, 0)),
        term(2, 1, (1, 0), [(zeta_plus_i(2, 1), F(-3, 2))]),
    ])
    g1 = holo_sum(1, [term(1, F(1, 3), (2,)), term(1, 1, (1,), [(zeta_plus_i(1, 0), F(-5, 2))])])
    if vars_ == "pair":
        f, weights = g2, ((2.3, 1.7), (1.3 + 0.4j, 2.1 - 0.7j))[i]
    else:
        f, weights = g1, ((2.3,), (1.3 + 0.4j,))[i]
    got = sl2_casimir(weights, f) if op == "casimir" else sl2_action(op, weights, f)
    assert to_text(got).split("\n") == SL2_TEXT[key]


# --- textual format --------------------------------------------------------


def test_text_round_trip_exact():
    f = add(
        ktype(F(5, 2), F(3), 2),
        holo_sum(2, [term(2, qqi(F(1, 3), F(-2)), (1, 4), [])]),
    )
    text = to_text(f)
    back = from_text(text)
    assert equal(f, back)
    assert to_text(back) == text


def test_text_term_order_is_pinned():
    # bases sort by coefficient value (1/3 before 1/2); exponents of one base
    # sort by (numerator, denominator), so 1/2 comes before 1/3
    half = base_poly(1, {(1,): 1, (0,): F(1, 2)})
    third = base_poly(1, {(1,): 1, (0,): F(1, 3)})
    f = holo_sum(1, [
        term(1, 2, (1,), [(half, F(-1)), (third, F(1, 2))]),
        term(1, 1, None, [(half, F(-1, 2))]),
        term(1, 1, None, [(third, F(-1, 2))]),
        term(1, F(-3), None, [(half, F(1, 3))]),
        term(1, F(1, 5), None, [(half, F(1, 2))]),
    ])
    assert to_text(f) == "\n".join([
        "(sum 1",
        "  (term 1 (mono 0) (pow (base ((0) 1/3) ((1) 1)) -1/2))",
        "  (term 1 (mono 0) (pow (base ((0) 1/2) ((1) 1)) -1/2))",
        "  (term 1/5 (mono 0) (pow (base ((0) 1/2) ((1) 1)) 1/2))",
        "  (term -3 (mono 0) (pow (base ((0) 1/2) ((1) 1)) 1/3))",
        "  (term 2 (mono 1) (pow (base ((0) 1/3) ((1) 1)) 1/2)"
        " (pow (base ((0) 1/2) ((1) 1)) -1))",
        ")",
    ])


def test_text_round_trip_float_coefficient():
    f = constant(1, 0.5 + 0.25j)
    back = from_text(to_text(f))
    assert abs(evaluate(back, (0.3 + 1j,)) - evaluate(f, (0.3 + 1j,))) < 1e-15


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("(sum 1 (term")
    with pytest.raises(ValueError):
        from_text("(sum 1) trailing")


@pytest.mark.parametrize(
    "text, pos",
    [
        ("(sum 1 (term x (mono 1)))", 13),  # bad number
        ("(sum 1 (term 1/0 (mono 1)))", 13),  # zero denominator
        ("(sum 1 (term 1 (mono 1)))  )", 24),  # trailing token: the sum's ")"
        ("(sum 1\n  (term 1 (mono 1)\n  ", 24),  # end of input: the last token
        ("(sum 1 (term 1 (mono 1) (pow (base ((3) 1)) 2)))", 45),  # degree-3 base
        ("", 0),
    ],
)
def test_parse_error_carries_offset(text, pos):
    with pytest.raises(ParseError) as info:
        from_text(text)
    assert info.value.pos == pos


@pytest.mark.parametrize("exponent, want", [("(c 1/2 0)", Fraction(1, 2)), ("(c 1/2 1)", 0.5 + 1j)])
def test_from_text_reads_an_exact_complex_exponent(exponent, want):
    # an exact (c re im) exponent is a Fraction when im is 0, else complex
    f = from_text(f"(sum 1 (term 1 (mono 0) (pow (base ((1) 1) ((0) (c 0 1))) {exponent})))")
    ((_, p),) = f.terms[0].bases
    assert p == want and type(p) is type(want)
