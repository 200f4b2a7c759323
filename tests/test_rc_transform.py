"""Forward/backward transform pair on the half-plane: routes, constants,
Casimir eigenvalues, composition and inversion."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holobreak
from holobreak import rc_transform, term_algebra
from holobreak.cli import _rc_library
from holobreak.quadrature import build_rule
from holobreak.rc_transform import (
    RC_ROUTES,
    RCParams,
    b_const,
    c_ell,
    c_ell_status,
    casimir_P,
    invert_rc,
    ktype_generator,
    psi_ktype_closed_form,
    psi_quadrature,
    r_ell,
    rc_apply,
    rc_operator_norm_sq,
    zero_classification,
)
from holobreak.special_poly import DomainError, PoleError, beta, jacobi_poly, pochhammer
from holobreak.term_algebra import (
    SingularRestrictionError,
    base_poly,
    combine,
    default_tube_points,
    differentiate,
    equal,
    evaluate,
    holo_sum,
    monomial,
    qqi,
    restrict,
    scale,
    sl2_action,
    sl2_casimir,
    sub,
    term,
    to_text,
)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def var_plus_i(arity, var):
    entries = {tuple(1 if k == var else 0 for k in range(arity)): 1}
    entries[(0,) * arity] = qqi(0, 1)
    return base_poly(arity, entries)


def pair_diff():
    return base_poly(2, {(1, 0): 1, (0, 1): -1})


def library():
    """Two-variable sums exercising monomials, bases and products."""
    e1 = holo_sum(2, [term(2, F(2), (1, 0), [(var_plus_i(2, 0), F(-2))])])
    e2 = holo_sum(2, [term(2, F(1, 3), (0, 2), [(var_plus_i(2, 1), F(-3))])])
    d3 = holo_sum(2, [term(2, 1, (0, 0), [(pair_diff(), F(3))])])
    return [
        monomial(2, (3, 0)),
        monomial(2, (2, 1), F(1, 2)),
        holo_sum(2, [term(2, F(3))]),
        ktype_generator(RCParams(F(2), F(2), 2)),
        ktype_generator(RCParams(F(3, 2), F(5, 2), 1)),
        e1,
        e2,
        d3,
        combine(2, [(1, e1), (1, e2), (1, monomial(2, (1, 1)))]),
    ]


PARAM_SET = [
    RCParams(F(2), F(2), 0),
    RCParams(F(2), F(2), 1),
    RCParams(F(2), F(2), 3),
    RCParams(F(3, 2), F(5, 2), 2),
    RCParams(F(-1, 2), F(3), 1),
]


def test_params_derived_fields():
    p = RCParams(F(3, 2), F(5, 2), 2)
    assert p.lam3 == F(8)
    assert p.alpha == F(1, 2)
    assert p.beta == F(3, 2)
    with pytest.raises(DomainError):
        RCParams(F(2), F(2), -1)
    with pytest.raises(DomainError):
        RCParams(F(2), F(2), F(1, 2))


def test_route_agreement_exact():
    for p in PARAM_SET:
        for f in library():
            base = rc_apply(p, f, "coefficients")
            for route in RC_ROUTES[1:]:
                assert equal(base, rc_apply(p, f, route)), (p, route)


def test_rc_order_zero_is_diagonal_restriction():
    p = RCParams(F(2), F(7, 3), 0)
    for f in library():
        assert equal(rc_apply(p, f), restrict(f, "diagonal"))


def test_rc_order_one_explicit():
    p = RCParams(F(2), F(3), 1)
    for f in library():
        manual = sub(
            scale(differentiate(f, 0), F(3)),
            scale(differentiate(f, 1), F(2)),
        )
        assert equal(rc_apply(p, f), restrict(manual, "diagonal"))


@pytest.mark.parametrize("route", RC_ROUTES)
def test_rc_apply_climbs_one_derivative_ladder(monkeypatch, route):
    # at ell = 8 each d1^i f is built once per lattice: 8 passes in z1 up the
    # ladder and 0 + 1 + ... + 8 = 36 in z2 off its rungs, 44 single-derivative
    # passes.  The level-0 generator has no base that vanishes on the
    # diagonal, so all routes share its lattice and the routes after the first
    # read every state back; the level-1 generator's lattice is pruned, and
    # each call climbs its own
    passes = []
    climb = term_algebra._Lattice._pass

    def counting(self, terms, var):
        passes.append(var)
        return climb(self, terms, var)

    term_algebra._lattice.cache_clear()
    monkeypatch.setattr(term_algebra._Lattice, "_pass", counting)
    p = RCParams(F(5, 2), F(3), 8)
    routes = (route,) + tuple(r for r in RC_ROUTES if r != route)
    for level, climbs in [(0, 1), (1, len(routes))]:
        passes.clear()
        f = ktype_generator(RCParams(F(5, 2), F(3), level))
        got = [rc_apply(p, f, r) for r in routes]
        assert passes.count(0) == 8 * climbs and passes.count(1) == 36 * climbs, level
        assert len(passes) == 44 * climbs, level
        assert all(equal(g, got[0]) for g in got)


def test_rc_apply_text_pinned_at_float_and_complex_weights():
    # the constant base z1 - z2 + 2 restricts to 2 and folds by the
    # principal power 2^(1/3); every float of the output is pinned
    b1 = var_plus_i(2, 0)
    b2 = base_poly(2, {(0, 1): 1, (0, 0): qqi(0, 2)})
    b3 = base_poly(2, {(1, 0): 1, (0, 1): -1, (0, 0): 2})
    got = []
    for lam1, lam2 in ((2.3, 1.7), (1.3 + 0.4j, 2.1 - 0.7j)):
        f = holo_sum(2, [term(2, 1, (0, 1), [(b1, -lam1), (b2, -lam2), (b3, F(1, 3))])])
        got.append(to_text(rc_apply(RCParams(lam1, lam2, 1), f)))
    assert got[0] == "\n".join([
        "(sum 1",
        "  (term -2.8978184147582082 (mono 0)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) -2.3)"
        " (pow (base ((0) (c 0 2)) ((1) 1)) -1.7))",
        "  (term -4.926291305088954 (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) -3.3)"
        " (pow (base ((0) (c 0 2)) ((1) 1)) -1.7))",
        "  (term 4.926291305088954 (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) -2.3)"
        " (pow (base ((0) (c 0 2)) ((1) 1)) -2.7))",
        "  (term 0.8399473665965821 (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) -2.3)"
        " (pow (base ((0) (c 0 2)) ((1) 1)) -1.7))",
        ")",
    ])
    assert got[1] == "\n".join([
        "(sum 1",
        "  (term (c -1.6378973648633348 -0.5039684199579493) (mono 0)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) (c -1.3 -0.4))"
        " (pow (base ((0) (c 0 2)) ((1) 1)) (c -2.1 0.7)))",
        "  (term (c -3.7923623601835685 0.08819447349264092) (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) (c -2.3 -0.4))"
        " (pow (base ((0) (c 0 2)) ((1) 1)) (c -2.1 0.7)))",
        "  (term (c 3.7923623601835676 -0.08819447349264078) (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) (c -1.3 -0.4))"
        " (pow (base ((0) (c 0 2)) ((1) 1)) (c -3.1 0.7)))",
        "  (term (c 0.7139552616070948 -0.06299605249474365) (mono 1)"
        " (pow (base ((0) (c 0 1)) ((1) 1)) (c -1.3 -0.4))"
        " (pow (base ((0) (c 0 2)) ((1) 1)) (c -2.1 0.7)))",
        ")",
    ])


@pytest.mark.parametrize("route", RC_ROUTES)
def test_operator_table_is_built_once_and_read_only(route):
    exact = RCParams(F(5, 2), 3, 2)
    table = rc_transform._operator_coefficients(exact, route)
    assert rc_transform._operator_coefficients(RCParams(F(10, 4), 3, 2), route) is table
    for p in (exact, RCParams(2.5, 3, 2)):
        got = rc_transform._operator_coefficients(p, route)
        want = dict(got)
        with pytest.raises(TypeError):
            got[(2, 0)] = 0
        assert dict(rc_transform._operator_coefficients(p, route)) == want


# prints, per route, the text of rc_apply at each named weight in turn
_WEIGHT_ORDER = """
import json, sys
from fractions import Fraction
from holobreak.rc_transform import RC_ROUTES, RCParams, rc_apply
from holobreak.term_algebra import base_poly, holo_sum, qqi, term, to_text
b = base_poly(2, {(1, 0): 1, (0, 0): qqi(0, 1)})
f = holo_sum(2, [term(2, 1, (0, 1), [(b, Fraction(-7, 2))])])
lam1 = {"exact": Fraction(5, 2), "float": 2.5}
print(json.dumps([[to_text(rc_apply(RCParams(lam1[w], 3, 2), f, r)) for w in sys.argv[1:]]
                  for r in RC_ROUTES]))
"""


def _texts_in_fresh_process(*weights):
    src = str(Path(holobreak.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WEIGHT_ORDER, *weights],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_float_and_exact_weights_get_their_own_tables_in_either_order():
    # RCParams(Fraction(5, 2), 3, 2) == RCParams(2.5, 3, 2), and both hash
    # alike, yet one table is exact and the other float
    exact = [texts[0] for texts in _texts_in_fresh_process("exact")]
    floats = [texts[0] for texts in _texts_in_fresh_process("float")]
    assert all(e != x for e, x in zip(exact, floats))
    assert _texts_in_fresh_process("exact", "float") == [list(p) for p in zip(exact, floats)]
    assert _texts_in_fresh_process("float", "exact") == [list(p) for p in zip(floats, exact)]


def test_rc_rejects_bad_input():
    p = RCParams(F(2), F(2), 1)
    with pytest.raises(DomainError):
        rc_apply(p, monomial(1, (1,)))
    with pytest.raises(DomainError):
        rc_apply(p, monomial(2, (1, 1)), route="nope")


@given(
    st.fractions(min_value=F(-2), max_value=F(4), max_denominator=3),
    st.fractions(min_value=F(-2), max_value=F(4), max_denominator=3),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_route_agreement_property(lam1, lam2, ell):
    p = RCParams(lam1, lam2, ell)
    f = holo_sum(2, [term(2, F(1, 2), (2, 1)), term(2, F(2), (1, 0), [(var_plus_i(2, 0), F(-2))])])
    base = rc_apply(p, f, "coefficients")
    for route in RC_ROUTES[1:]:
        assert equal(base, rc_apply(p, f, route))


# ---------------------------------------------------------------------------
# equivariance and Casimir


def test_sl2_intertwining_exact():
    fs = [
        monomial(2, (2, 1), F(1, 2)),
        ktype_generator(RCParams(F(2), F(2), 2)),
        holo_sum(2, [term(2, F(2), (1, 0), [(var_plus_i(2, 0), F(-2))])]),
    ]
    for p in (RCParams(F(2), F(2), 1), RCParams(F(3, 2), F(5, 2), 2)):
        for f in fs:
            for gen in "HXY":
                lhs = rc_apply(p, sl2_action(gen, (p.lam1, p.lam2), f))
                rhs = sl2_action(gen, (p.lam3,), rc_apply(p, f))
                assert equal(lhs, rhs), (p, gen)


@pytest.mark.parametrize("lams", [(F(2), F(3)), (F(5, 2), F(7, 3))], ids=lambda lams: "-".join(map(str, lams)))
def test_casimir_intertwines_exact(lams):
    # RC_ell carries the pair Casimir at (lam1, lam2) to the one-variable
    # Casimir at lam3; at lam3 + 1 the same identity must fail
    for ell in range(4):
        p = RCParams(*lams, ell)
        for name, f in _rc_library():
            image = rc_apply(p, f)
            assert image.terms, (name, ell)
            lhs = rc_apply(p, sl2_casimir((p.lam1, p.lam2), f))
            assert equal(lhs, sl2_casimir((p.lam3,), image)), (name, ell)
            assert not equal(lhs, sl2_casimir((p.lam3 + 1,), image)), (name, ell)


@pytest.mark.parametrize("lams", [(F(2), F(3)), (F(5, 2), F(7, 3))], ids=lambda lams: "-".join(map(str, lams)))
def test_rc_apply_matches_whole_call_climb(lams):
    # every route and order reads one derivative lattice per input; each
    # must give the restriction of the combined whole differentiate calls
    for name, f in _rc_library():
        for ell in range(11):
            p = RCParams(*lams, ell)
            for route in RC_ROUTES:
                table = rc_transform._operator_coefficients(p, route)
                pieces = [(c, differentiate(differentiate(f, 0, i), 1, j))
                          for (i, j), c in table.items()]
                want = restrict(combine(2, pieces), "diagonal")
                assert to_text(rc_apply(p, f, route)) == to_text(want), (name, ell, route)


def test_casimir_annihilates_weight_product():
    f = ktype_generator(RCParams(F(2), F(3), 0))
    assert equal(casimir_P(F(2), F(3), f), holo_sum(2, []))


def test_casimir_eigenvalue_on_generators():
    for p in PARAM_SET:
        gen = ktype_generator(p)
        eig = -p.ell * (p.lam1 + p.lam2 + p.ell - 1)
        assert equal(casimir_P(p.lam1, p.lam2, gen), scale(gen, eig)), p


def test_casimir_matches_diagonal_casimir():
    lam1, lam2 = F(3, 2), F(5, 2)
    shift = (lam1 + lam2) * (lam1 + lam2 - 2) / 8
    for f in library():
        lhs = scale(sub(sl2_casimir((lam1, lam2), f), scale(f, shift)), F(-2))
        assert equal(lhs, casimir_P(lam1, lam2, f))


def test_composition_constant_exact():
    for p in PARAM_SET:
        got = rc_apply(p, ktype_generator(p))
        coeff = pochhammer(p.lam1 + p.lam2 + p.ell - 1, p.ell)
        want = holo_sum(
            1, [term(1, coeff, (0,), [(var_plus_i(1, 0), -F(p.lam3))])]
        )
        assert equal(got, want), p


def test_cross_order_components_vanish():
    for ell_op, ell_gen in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)]:
        p = RCParams(F(2), F(2), ell_op)
        gen = ktype_generator(RCParams(F(2), F(2), ell_gen))
        assert equal(rc_apply(p, gen), holo_sum(1, []))


def climb_everything(p, f, route):
    """rc_apply without pruning: every d1^i d2^j f in full, then restrict."""
    pieces = [(c, differentiate(differentiate(f, 0, i), 1, j))
              for (i, j), c in rc_transform._operator_coefficients(p, route).items()]
    return restrict(combine(2, pieces), "diagonal")


@pytest.mark.parametrize("route", RC_ROUTES)
@pytest.mark.parametrize("lam1, lam2", [(F(5, 2), F(3)), (2.3, 1.7)])
def test_pruned_ladder_matches_climbing_everything_on_ktype(route, lam1, lam2):
    for ell in range(11):
        p = RCParams(lam1, lam2, ell)
        f = ktype_generator(p)
        assert to_text(rc_apply(p, f, route)) == to_text(climb_everything(p, f, route)), ell


def test_pruned_ladder_keeps_one_term_per_rung():
    # on the K-type generator every pass but the one on (z1 - z2)^ell is cut,
    # in each of the 1 + 6 + 21 states that the order-6 operator reads
    p = RCParams(F(5, 2), F(3), 6)
    lattice = term_algebra._Lattice(ktype_generator(p), "diagonal", 6)
    for alpha in rc_transform._operator_coefficients(p, "coefficients"):
        lattice.state(alpha)
    assert len(lattice.states) == 28
    assert {len(s) for s in lattice.states.values()} == {1}


def test_pruned_lattice_stays_out_of_the_memo():
    # a pruned lattice is built for one call's operator order and never
    # read again, so it takes no slot from the shared lattices
    term_algebra._lattice.cache_clear()
    before = term_algebra._lattice.cache_info().currsize
    for ell in range(1, 4):  # from ell = 1 the generator holds (z1 - z2)^ell
        p = RCParams(F(5, 2), F(3), ell)
        rc_apply(p, ktype_generator(p))
    assert term_algebra._lattice.cache_info().currsize == before


# z1 - z2 and 2 z1 - 2 z2 vanish on the diagonal; the other bases do not
VANISHING = (pair_diff(), base_poly(2, {(1, 0): 2, (0, 1): -2}))
STAYING = (var_plus_i(2, 0), var_plus_i(2, 1),
           base_poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): qqi(2, 1)}))


@st.composite
def diagonal_sums(draw):
    # mostly positive integer powers of the vanishing bases, now and then one
    # that restriction must refuse; fractional powers on the others
    vanishing_exp = st.one_of(st.integers(0, 5), st.integers(0, 5),
                              st.sampled_from([F(1, 2), F(-1), F(-5, 3)]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        bases = [(b, draw(vanishing_exp)) for b in VANISHING]
        for b in draw(st.lists(st.sampled_from(STAYING), unique=True, max_size=2)):
            bases.append((b, F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3])))))
        coeff = F(draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 4)))
        mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms.append(term(2, coeff, mono, bases))
    return holo_sum(2, terms)


def outcome(fn, *args):
    try:
        return to_text(fn(*args))
    except SingularRestrictionError:
        return "raises"


@given(diagonal_sums(), st.integers(0, 4), st.sampled_from(RC_ROUTES),
       st.sampled_from([(F(5, 2), F(3)), (2.3, 1.7)]))
@settings(max_examples=60, deadline=None)
def test_pruned_ladder_matches_climbing_everything(f, ell, route, lams):
    p = RCParams(*lams, ell)
    assert outcome(rc_apply, p, f, route) == outcome(climb_everything, p, f, route)


# ---------------------------------------------------------------------------
# constants


def test_c_ell_frozen_and_exact():
    assert c_ell(2, 2, 0) == F(1, 6)
    assert isinstance(c_ell(2, 2, 0), F)
    assert c_ell(F(2), F(3), 2) == F(3, 40)


def test_c_ell_against_weighted_polynomial_norm():
    cases = [(2, 2, 0), (2, 2, 1), (F(5, 2), 3, 2), (3, 2, 0), (F(3, 2), F(3, 2), 3)]
    for lam1, lam2, ell in cases:
        a, b = float(lam1 - 1), float(lam2 - 1)
        rule = build_rule(("jacobi", a, b), 40)
        poly = jacobi_poly(ell, lam1 - 1, lam2 - 1)
        total = sum(
            w * float(poly(float(v))) ** 2 for v, w in zip(rule.nodes, rule.weights)
        )
        numeric = total / 2.0 ** float(lam1 + lam2 - 1)
        assert rel(numeric, float(c_ell(lam1, lam2, ell))) < 1e-10, (lam1, lam2, ell)


def test_c_ell_status_kinds():
    assert c_ell_status(0, 0, 1) == ("zero", F(0))
    assert c_ell_status(0, 3, 0)[0] == "pole"
    assert c_ell_status(-1, 1, 1)[0] == "indeterminate"
    assert c_ell_status(2, 2, 1)[0] == "nonzero"
    assert c_ell(0, 0, 1) == 0
    with pytest.raises(PoleError):
        c_ell(0, 3, 0)
    with pytest.raises(PoleError):
        c_ell(-1, 1, 1)


def test_c_ell_float_limit_on_the_line_t_zero():
    # lam1 + lam2 + 2 ell - 1 = 0: the pole of 1/t meets the zero of
    # 1/Gamma(d), and the float tier takes the same limit as the exact one
    for (lam1, lam2, ell), exact in (
        ((0.5, -1.5, 1), (F(1, 2), F(-3, 2), 1)),
        ((0.5, -3.5, 2), (F(1, 2), F(-7, 2), 2)),
    ):
        want = c_ell(*exact)
        assert want == 3.141592653589793
        assert rel(c_ell(lam1, lam2, ell), want) < 1e-15
    z = complex(c_ell(0.5 + 1j, -1.5 - 1j, 1))
    assert math.isfinite(z.real) and math.isfinite(z.imag)


def test_c_ell_nonvanishing_on_positive_weights():
    for lam1 in (F(1, 2), 1, F(7, 3), 4):
        for lam2 in (F(1, 2), 2, F(9, 4)):
            for ell in range(4):
                assert c_ell(lam1, lam2, ell) != 0


def test_b_const_values_and_poles():
    assert rel(b_const(2), math.pi) < 1e-14
    assert rel(b_const(4), math.pi / 2) < 1e-14
    for lam in (1, 0, -1):
        with pytest.raises(PoleError):
            b_const(lam)


def test_r_ell_frozen_and_continued():
    assert rel(r_ell(2, 2, 0), 1 / (2 * math.pi)) < 1e-14
    assert r_ell(1, 2, 0) == 0.0
    assert rel(r_ell(2, 3, 1), 15 / (2 * math.pi)) < 1e-12
    assert rel(r_ell(2, 3, 1), b_const(7) / (b_const(2) * b_const(3))) < 1e-12


def _mp_c_ell(lam1, lam2, ell):
    t = lam1 + lam2 + 2 * ell - 1
    return (mpmath.gamma(lam1 + ell) * mpmath.gamma(lam2 + ell)
            / (t * mpmath.gamma(lam1 + lam2 + ell - 1) * mpmath.factorial(ell)))


def _mp_r_ell(lam1, lam2, ell):
    return (mpmath.gamma(lam1 + lam2 + 2 * ell - 1)
            / (mpmath.gamma(lam1 - 1) * mpmath.gamma(lam2 - 1) * 2 ** (2 * ell + 2) * mpmath.pi))


def _mp_b(lam):
    lam = mpmath.mpf(F(lam).numerator) / F(lam).denominator
    return 2 ** (2 - lam) * mpmath.pi * mpmath.gamma(lam - 1)


def _mp_rel(got, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


@pytest.fixture
def digits40():
    with mpmath.workdps(40):
        yield


# (lam1, lam2, ell) where a Gamma factor of the direct product overflows but
# the constant is finite; the sixth c_ell point overflows only the product
# Gamma(lam1) Gamma(lam2), which is inf without raising, and the last is
# negative, with Gamma(-200.5) < 0
LARGE_C_ELL = [(90.5, 90.5, 1), (F(181, 2), F(181, 2), 1), (120.0, 80.25, 3),
               (300.5, 2.5, 0), (150.0, 151.0, 0), (0.01, 171.6, 0), (-200.5, 400.25, 0)]
LARGE_R_ELL = [(150.5, 150.5, 1), (F(301, 2), F(301, 2), 1), (200.25, 3.5, 4),
               (90.0, 90.0, 0), (400, 10, 2)]


# Gamma(lam - 1) overflows from lam = 172.6 on; b itself stays finite to
# lam of about 190
LARGE_B = [172.75, 180.5, F(361, 2), F(741, 4), 189.0]


def test_c_ell_at_integer_weights_is_the_exact_gamma_quotient(digits40):
    # every Gamma factor is an integer below 10^40, so the 40-digit quotient
    # is the correctly rounded value of the same rational as the Fraction
    for lam1 in range(1, 12):
        for lam2 in range(1, 12):
            for ell in range(8):
                got = c_ell(lam1, lam2, ell)
                assert type(got) is F, (lam1, lam2, ell)
                want = _mp_c_ell(lam1, lam2, ell)
                assert mpmath.mpf(got.numerator) / got.denominator == want, (lam1, lam2, ell)


@pytest.mark.parametrize("lam", LARGE_B)
def test_b_const_past_gamma_overflow_matches_mpmath(lam, digits40):
    assert _mp_rel(b_const(lam), _mp_b(lam)) < 1e-12


@pytest.mark.parametrize("lam1, lam2, ell", LARGE_C_ELL)
def test_c_ell_past_gamma_overflow_matches_mpmath(lam1, lam2, ell, digits40):
    assert _mp_rel(c_ell(lam1, lam2, ell), _mp_c_ell(lam1, lam2, ell)) < 1e-12


@pytest.mark.parametrize("lam1, lam2, ell", LARGE_R_ELL)
def test_r_ell_past_gamma_overflow_matches_mpmath(lam1, lam2, ell, digits40):
    assert _mp_rel(r_ell(lam1, lam2, ell), _mp_r_ell(lam1, lam2, ell)) < 1e-12


def test_constants_past_double_range_still_overflow(digits40):
    # the lgamma route covers finite values on the real line only: beyond
    # the double range, and off the real line, the OverflowError stands
    assert _mp_r_ell(600.5, 600.5, 1) > 1e308
    with pytest.raises(OverflowError):
        r_ell(600.5, 600.5, 1)
    with pytest.raises(OverflowError):
        c_ell(-200.5 + 1j, 400.25, 0)
    assert _mp_b(200.5) > 1e308
    with pytest.raises(OverflowError):
        b_const(200.5)


def test_plancherel_weight_positivity():
    for lam1, lam2 in [(1.5, 2.7), (2.0, 2.0), (3.25, 1.1)]:
        for ell in range(21):
            c = c_ell(lam1, lam2, ell)
            r = r_ell(lam1, lam2, ell)
            assert c > 0 and r > 0
            assert 1 / (r * c) > 0 and c / r > 0


def test_operator_norm():
    assert rel(rc_operator_norm_sq(RCParams(2, 2, 0)), 1 / (12 * math.pi)) < 1e-12
    with pytest.raises(DomainError):
        rc_operator_norm_sq(RCParams(1, 2, 0))
    with pytest.raises(DomainError):
        rc_operator_norm_sq(RCParams(2 + 1j, 2, 0))


# ---------------------------------------------------------------------------
# backward transform


def test_psi_order_zero_is_beta_integral():
    for lam1, lam2 in [(F(2), F(2)), (F(3, 2), F(5, 2)), (F(3), F(1))]:
        p = RCParams(lam1, lam2, 0)
        got = psi_quadrature(p, lambda z: 1.0, 1j, 0.5 + 2j)
        assert rel(got, complex(beta(lam1, lam2))) < 1e-12


def test_psi_degenerate_segment_vanishes():
    p = RCParams(F(2), F(2), 2)
    assert psi_quadrature(p, lambda z: (z + 1j) ** -8, 1j, 1j) == 0


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        psi_quadrature(RCParams(2 + 0.5j, 2, 0), lambda z: 1.0, 1j, 2j)
    with pytest.raises(DomainError):
        psi_quadrature(RCParams(F(-3), F(2), 1), lambda z: 1.0, 1j, 2j)


def test_psi_quadrature_raises_where_it_does_not_converge():
    # a pole 1e-6 off the segment's midpoint: the integral is 0.392699j, which
    # no order up to 512 resolves to 1e-10, so no value may come back
    pole = 1 + 1.000001j
    with pytest.raises(DomainError, match="did not converge"):
        psi_quadrature(RCParams(2, 2, 0), lambda z: 1 / (z - pole), 1j, 2 + 1j)


def test_psi_quadrature_matches_closed_form():
    points = default_tube_points(2)
    for p in [RCParams(F(2), F(2), ell) for ell in range(4)] + [
        RCParams(F(3, 2), F(5, 2), 2)
    ]:
        lam3 = p.lam3
        closed = psi_ktype_closed_form(p)

        def gen(z, s=lam3):
            return (z + 1j) ** complex(-s)

        for z1, z2 in points:
            got = psi_quadrature(p, gen, z1, z2)
            want = evaluate(closed, (z1, z2))
            assert rel(got, want) < 1e-9, (p, z1, z2)


def test_psi_closed_form_order_zero():
    p = RCParams(F(2), F(3), 0)
    f = psi_ktype_closed_form(p)
    z1, z2 = 0.3 + 1j, -0.2 + 0.8j
    want = beta(2, 3) * (z1 + 1j) ** -2 * (z2 + 1j) ** -3
    assert rel(evaluate(f, (z1, z2)), want) < 1e-13


# ---------------------------------------------------------------------------
# projection and inversion


def one_level(p: RCParams, f):
    """The projector (1/c_ell) backward-after-forward onto the order-ell
    summand: the inverse series of the one component rc_apply(p, f)."""
    return invert_rc(p.lam1, p.lam2, {p.ell: lambda z: evaluate(rc_apply(p, f), (z,))})


def test_projection_fixes_its_summand():
    p = RCParams(F(2), F(2), 1)
    target = psi_ktype_closed_form(p)
    proj = one_level(p, target)
    for z1, z2 in default_tube_points(2)[:5]:
        assert rel(proj(z1, z2), evaluate(target, (z1, z2))) < 1e-9


def test_projection_reaches_its_component_in_one_array_call():
    # each pass of the order-doubling schedule hands the component its
    # segment nodes as one array, never one call per node
    p = RCParams(F(2), F(2), 1)
    target = psi_ktype_closed_form(p)
    g = rc_apply(p, target)
    points = []

    def component(z):
        points.append(z)
        return evaluate(g, (z,))

    z1, z2 = default_tube_points(2)[0]
    got = invert_rc(p.lam1, p.lam2, {p.ell: component})(z1, z2)
    assert all(isinstance(nodes, np.ndarray) for nodes in points)
    orders = [len(nodes) for nodes in points]
    assert len(orders) >= 2 and orders == [16 * 2**k for k in range(len(orders))]
    assert rel(got, evaluate(target, (z1, z2))) < 1e-9


@pytest.mark.parametrize("lam1, lam2, ell", [(F(2), F(2), 1), (F(5, 2), 3, 2), (2.5, 3.0, 0)])
def test_projection_is_the_one_level_inversion(lam1, lam2, ell):
    # the one-level inverse series of f = psi_0 + psi_ell keeps the order-ell
    # summand, all of f when ell = 0
    p = RCParams(lam1, lam2, ell)
    low, summand = psi_ktype_closed_form(RCParams(lam1, lam2, 0)), psi_ktype_closed_form(p)
    f = combine(2, [(1, low), (1, summand)])
    kept = f if ell == 0 else summand
    proj = one_level(p, f)
    for z1, z2 in default_tube_points(2)[:4]:
        assert rel(proj(z1, z2), evaluate(kept, (z1, z2))) < 1e-9


def test_projection_kills_other_summands():
    p = RCParams(F(2), F(2), 1)
    alien = psi_ktype_closed_form(RCParams(F(2), F(2), 0))
    proj = one_level(p, alien)
    for z1, z2 in default_tube_points(2)[:3]:
        assert abs(proj(z1, z2)) < 1e-12


def test_inversion_round_trip():
    lam1 = lam2 = F(2)
    f = combine(2, [(1, psi_ktype_closed_form(RCParams(lam1, lam2, k))) for k in (0, 1)])
    components = {}
    for ell in (0, 1):
        g = rc_apply(RCParams(lam1, lam2, ell), f)
        components[ell] = lambda z, g=g: evaluate(g, (z,))
    rec = invert_rc(lam1, lam2, components)
    for z1, z2 in default_tube_points(2)[:6]:
        assert rel(rec(z1, z2), evaluate(f, (z1, z2))) < 1e-8


def test_inversion_truncation():
    lam1 = lam2 = F(2)
    low = psi_ktype_closed_form(RCParams(lam1, lam2, 0))
    f = combine(2, [(1, low), (1, psi_ktype_closed_form(RCParams(lam1, lam2, 1)))])
    components = {}
    for ell in (0, 1):
        g = rc_apply(RCParams(lam1, lam2, ell), f)
        components[ell] = lambda z, g=g: evaluate(g, (z,))
    rec = invert_rc(lam1, lam2, components, L=0)
    for z1, z2 in default_tube_points(2)[:4]:
        assert rel(rec(z1, z2), evaluate(low, (z1, z2))) < 1e-8


@pytest.mark.parametrize("L", [-1, True, 0.5, "2"])
def test_inversion_rejects_a_bad_truncation_level(L):
    # a truncation level is an ell: -1 would drop every level, True and 0.5
    # would act as 1 and 0
    with pytest.raises(DomainError):
        invert_rc(2, 2, {0: lambda z: 1.0}, L=L)


@pytest.mark.parametrize("keys", [(0, "a"), (1.0,), (True,), (-1,)],
                         ids=["mixed", "float", "bool", "negative"])
def test_inversion_rejects_a_bad_level_key(keys):
    # a mixed key set used to raise a bare TypeError from sorted, and 1.0
    # and True passed as levels
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        invert_rc(2, 2, dict.fromkeys(keys, lambda z: 1.0))


# ---------------------------------------------------------------------------
# zero classification


def test_zero_classification_examples():
    assert not zero_classification(2, 2, 6)
    assert zero_classification(0, 0, 2)
    assert not zero_classification(1, 1, 2)


def test_zero_classification_validation():
    with pytest.raises(DomainError):
        zero_classification(F(1, 2), 0, 2)
    with pytest.raises(DomainError):
        zero_classification(1, 1, 3)
    with pytest.raises(DomainError):
        zero_classification(2, 2, 0)


def test_zero_classification_matches_status_sweep():
    zeros = nonzeros = flagged = 0
    for lam1 in range(-4, 5):
        for lam2 in range(-4, 5):
            for ell in range(4):
                kind, _ = c_ell_status(lam1, lam2, ell)
                predicted = zero_classification(lam1, lam2, lam1 + lam2 + 2 * ell)
                if kind == "indeterminate":
                    flagged += 1
                    continue
                assert (kind == "zero") == predicted, (lam1, lam2, ell, kind)
                if kind == "zero":
                    zeros += 1
                else:
                    nonzeros += 1
    assert zeros and nonzeros
    assert flagged < zeros + nonzeros
