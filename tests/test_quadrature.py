"""Rule construction against scipy, exactness degrees, adaptive honesty."""
from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from holobreak import quadrature
from holobreak.juhl import (
    JuhlParams,
    cone_constants,
    cone_fourier_laplace,
    holographic_integral,
)
from holobreak.quadrature import (
    IntegralResult,
    build_rule,
    geometric_panels,
    integrate,
    integrate_adaptive,
    integrate_region,
    node_values,
)
from holobreak.special_poly import DomainError, beta as beta_fn


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def pointwise(f):
    """Array form of a one-point callable: f called once per point of the
    node arrays, with one Python scalar per array."""
    return lambda *xs: np.array([f(*p) for p in zip(*(x.tolist() for x in xs))])


PARAM_GRID = [0.0, 0.5, 1.0, 2.5, -0.5]


@pytest.mark.parametrize("alpha", PARAM_GRID)
@pytest.mark.parametrize("beta", PARAM_GRID)
def test_jacobi_weight_sum(alpha, beta):
    rule = build_rule(("jacobi", alpha, beta), 12)
    mu0 = 2.0 ** (alpha + beta + 1) * float(beta_fn(alpha + 1, beta + 1))
    assert rel(rule.weights.sum(), mu0) < 1e-13


def test_jacobi_nodes_match_scipy():
    for alpha, beta in [(0.0, 0.0), (0.5, 2.5), (-0.5, 1.0)]:
        rule = build_rule(("jacobi", alpha, beta), 15)
        x, w = sps.roots_jacobi(15, alpha, beta)
        assert np.max(np.abs(rule.nodes - x)) < 1e-12
        assert np.max(np.abs(rule.weights - w)) < 1e-12


def test_laguerre_nodes_match_scipy():
    rule = build_rule(("laguerre", 1.5, 1.0), 14)
    x, w = sps.roots_genlaguerre(14, 1.5)
    assert np.max(np.abs(rule.nodes - x)) < 1e-11
    assert np.max(np.abs(rule.weights - w)) < 1e-12


def _interval_moment(k, alpha, beta, a, b):
    # integral of x^k (b-x)^alpha (x-a)^beta over (a, b), expanded in
    # powers of x - a; every term is positive when a >= 0
    return math.fsum(
        math.comb(k, j) * a ** (k - j) * (b - a) ** (j + alpha + beta + 1)
        * sps.beta(j + beta + 1, alpha + 1)
        for j in range(k + 1)
    )


@pytest.mark.parametrize("order, interval", [
    pytest.param(order, interval, id=f"{order}" + "".join(f"-{x:g}" for x in interval))
    for interval in [(), (0.0, 3.0), (1.0, 4.0)]
    for order in (3, 8, 20)
])
def test_jacobi_exactness_through_2n_minus_1(order, interval):
    alpha, beta = 0.5, 2.5
    rule = build_rule(("jacobi", alpha, beta) + interval, order)
    if interval:
        def want(k):
            return _interval_moment(k, alpha, beta, *interval)
    else:
        oracle = build_rule(("jacobi", alpha, beta), 64)

        def want(k):
            return integrate(pointwise(lambda t: t**k), oracle)
    for k in range(2 * order):
        got = integrate(pointwise(lambda t: t**k), rule)
        assert rel(got, want(k)) < 1e-13, k


@pytest.mark.parametrize("order", [3, 8, 20])
def test_laguerre_exactness_closed_form(order):
    gamma, scale = 0.75, 2.0
    rule = build_rule(("laguerre", gamma, scale), order)
    for k in range(2 * order):
        got = integrate(pointwise(lambda z: z**k), rule)
        want = math.gamma(gamma + k + 1) / scale ** (gamma + k + 1)
        assert rel(got, want) < 1e-13


@pytest.mark.parametrize("order", [1, 3, 8, 20])
def test_periodic_exactness_below_degree_n(order):
    # e^(ik theta) integrates to 2 pi at k = 0 and to 0 at 0 < |k| < n; at
    # k = n every node, 2 pi (j + 1/2)/n, sees e^(ik theta) = -1, so the
    # rule stops there
    rule = build_rule(("periodic",), order)
    for k in range(-order + 1, order):
        got = integrate(lambda t: np.exp(1j * k * t), rule)
        assert rel(got, 2 * math.pi if k == 0 else 0.0) < 1e-13, k
    assert rel(integrate(lambda t: np.cos(order * t), rule), -2 * math.pi) < 1e-13
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_legendre_exactness_closed_form():
    a, b = -0.5, 2.0
    rule = build_rule(("legendre", a, b), 10)
    for k in range(20):
        got = integrate(pointwise(lambda t: t**k), rule)
        want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert rel(got, want) < 1e-13


def test_laguerre_scale_substitution():
    rule = build_rule(("laguerre", 1.0, 2.0), 8)
    # integral of z e^(-2z) over (0, inf)
    assert rel(integrate(pointwise(lambda z: 1.0), rule), 0.25) < 1e-14


def test_rule_domain_errors():
    with pytest.raises(DomainError):
        build_rule(("jacobi", -1.0, 0.0), 5)
    with pytest.raises(DomainError):
        build_rule(("laguerre", -1.5, 1.0), 5)
    with pytest.raises(DomainError):
        build_rule(("legendre", 1.0, 0.0), 5)
    with pytest.raises(DomainError):
        build_rule(("legendre", 0.0, math.inf), 5)
    with pytest.raises(DomainError):
        build_rule(("jacobi", 0.5, 0.5, 2.0, 2.0), 5)
    with pytest.raises(DomainError):
        build_rule(("panels", []), 5)
    with pytest.raises(DomainError):
        build_rule(("jacobi", 0.5), 5)
    with pytest.raises(DomainError):
        build_rule(("hermite",), 5)
    with pytest.raises(DomainError):
        build_rule(("periodic", 0.0, 1.0), 5)
    with pytest.raises(DomainError):
        build_rule(("jacobi", 0.0, 0.0), 0)


@pytest.mark.parametrize("order", [2.5, 4.0, True, "8", None])
def test_rule_order_must_be_an_int(order):
    with pytest.raises(DomainError, match="rule order must be an int >= 1"):
        build_rule(("legendre", 0.0, 1.0), order)


@pytest.mark.parametrize("spec", [
    ("laguerre", 1.0, math.nan),
    ("laguerre", math.inf, 1.0),
    ("jacobi", math.nan, 0.0),
    ("jacobi", 0.0, 0.0, -math.inf, 1.0),
    ("legendre", 0.0, math.nan),
    ("panels", [(0.0, 1.0), (1.0, math.nan)]),
    ("jacobi", 1j, 0.0),
    ("jacobi", Fraction(10**400), 0.0),
])
def test_rule_parameters_must_be_finite(spec):
    # checked before the cache lookup, so no nan key takes a cache slot
    size = quadrature._jacobi_rule.cache_info().currsize, quadrature._laguerre_rule.cache_info().currsize
    with pytest.raises(DomainError, match="needs finite real parameters"):
        build_rule(spec, 5)
    assert (quadrature._jacobi_rule.cache_info().currsize,
            quadrature._laguerre_rule.cache_info().currsize) == size


@pytest.mark.parametrize("spec", [
    ("laguerre", 200.0, 1.0),
    ("jacobi", 600.0, 600.0),
    ("laguerre", 100.0, 1e-3),
    ("jacobi", 600.0, 600.0, 0.0, 1.0),
])
def test_rule_weight_mass_overflow_raises(spec):
    with pytest.raises(DomainError, match="weight mass of .* overflows|not a positive finite float"):
        build_rule(spec, 5)


@pytest.mark.parametrize("spec", [("jacobi", 200.0, 200.0), ("jacobi", 150.5, 300.0, 0.0, 1.0)])
def test_rule_weight_mass_past_gamma_overflow(spec):
    # Gamma(alpha+beta+2) overflows, but the mass 2^(alpha+beta+1)
    # B(alpha+1, beta+1), times half the interval's width to the power
    # alpha+beta+1 on an interval, is a finite double
    alpha, beta = spec[1:3]
    scale = 1.0 if len(spec) == 3 else ((spec[4] - spec[3]) / 2) ** (alpha + beta + 1)
    with mpmath.workdps(40):
        want = 2 ** mpmath.mpf(alpha + beta + 1) * mpmath.beta(alpha + 1, beta + 1) * scale
        mass = build_rule(spec, 8).weights.sum()
        assert float(abs((mass - want) / want)) < 1e-12


def _fresh(spec, order):
    """The rule built with the uncached eigenvalue step."""
    jacobi = quadrature._jacobi_rule.__wrapped__
    match spec:
        case ("jacobi", alpha, beta):
            return jacobi(order, alpha, beta)
        case ("jacobi", alpha, beta, a, b):
            return quadrature._on_interval(jacobi(order, alpha, beta), alpha, beta, a, b)
        case ("legendre", a, b):
            return quadrature._on_interval(jacobi(order, 0.0, 0.0), 0.0, 0.0, a, b)
        case ("laguerre", gamma, scale):
            return quadrature._laguerre_rule.__wrapped__(order, gamma, scale)
        case ("panels", panels):
            moved = [quadrature._on_interval(jacobi(order, 0.0, 0.0), 0.0, 0.0, a, b)
                     for a, b in panels]
            return np.concatenate([m[0] for m in moved]), np.concatenate([m[1] for m in moved])


SPEC_FORMS = [
    ("jacobi", 0.5, -0.25),
    ("jacobi", 1.5, 0.0, -2.0, 3.0),
    ("legendre", -1.0, 4.0),
    ("laguerre", 1.5, 2.0),
    ("panels", [(0.0, 0.5), (0.5, 1.5), (1.5, 3.5)]),
]


@pytest.mark.parametrize("spec", SPEC_FORMS, ids=lambda s: f"{s[0]}-{len(s)}")
def test_cached_rule_is_bit_identical_to_a_fresh_build(spec):
    for order in range(1, 129):
        first = build_rule(spec, order)
        again = build_rule(spec, order)
        nodes, weights = _fresh(spec, order)
        for rule in (first, again):
            assert np.array_equal(rule.nodes, nodes), order
            assert np.array_equal(rule.weights, weights), order


@pytest.mark.parametrize("spec", SPEC_FORMS, ids=lambda s: f"{s[0]}-{len(s)}")
def test_rule_arrays_are_read_only(spec):
    rule = build_rule(spec, 6)
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
    for array in quadrature._jacobi_rule(6, 0.5, -0.25) + quadrature._laguerre_rule(6, 1.5, 2.0):
        with pytest.raises(ValueError):
            array *= 2.0


def test_fraction_and_float_parameters_are_separate_cache_entries():
    # Fraction(1, 2) == 0.5 and both hash alike, but the recurrence runs in
    # Fraction arithmetic for the one and float for the other; for a value
    # such as 1/3 the two round differently
    cache = quadrature._jacobi_rule
    cache.cache_clear()
    half = build_rule(("jacobi", Fraction(1, 2), Fraction(1, 2)), 9)
    build_rule(("jacobi", 0.5, 0.5), 9)
    assert cache.cache_info().misses == 2 and cache.cache_info().currsize == 2
    assert np.array_equal(half.nodes, cache.__wrapped__(9, Fraction(1, 2), Fraction(1, 2))[0])
    third = Fraction(1 / 3)
    assert third == 1 / 3
    exact = build_rule(("jacobi", third, 0.0), 9)
    rounded = build_rule(("jacobi", 1 / 3, 0.0), 9)
    assert cache.cache_info().currsize == 4
    assert not np.array_equal(exact.nodes, rounded.nodes)
    assert np.array_equal(exact.nodes, cache.__wrapped__(9, third, 0.0)[0])
    assert np.array_equal(rounded.nodes, cache.__wrapped__(9, 1 / 3, 0.0)[0])


def test_repeated_build_is_a_cache_hit():
    for cache, spec in ((quadrature._jacobi_rule, ("jacobi", 0.5, 1.5, 0.0, 2.0)),
                        (quadrature._laguerre_rule, ("laguerre", 0.5, 3.0))):
        cache.cache_clear()
        build_rule(spec, 12)
        assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 1)
        build_rule(spec, 12)
        assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 1)
        # a bad interval raises after the lookup, and the base rule stays cached
        if spec[0] == "jacobi":
            with pytest.raises(DomainError):
                build_rule(("jacobi", 0.5, 1.5, 2.0, 0.0), 12)
            assert cache.cache_info().hits == 2


def test_adaptive_converges_and_reports():
    res = integrate_adaptive(pointwise(math.exp), ("legendre", -1.0, 1.0), tol=1e-12)
    assert isinstance(res, IntegralResult)
    assert res.converged
    assert rel(res.value, math.e - 1 / math.e) < 1e-12
    assert 0 <= res.error < 1e-12


def test_adaptive_flags_unconverged_honestly():
    # an oscillatory integrand the tiny budget cannot resolve: the two
    # passes (orders 2 and 4, 6 evaluations) disagree, and that raises
    f = pointwise(lambda t: math.cos(200 * t))
    r2, r4 = (build_rule(("legendre", -1.0, 1.0), n) for n in (2, 4))
    err = rel(integrate(f, r4), integrate(f, r2))
    with pytest.raises(DomainError, match="did not converge") as info:
        integrate_adaptive(f, ("legendre", -1.0, 1.0), tol=1e-14, start_order=2, max_order=4)
    msg = str(info.value)
    assert f"error estimate {err:.2e}" in msg
    assert "last order 4" in msg and "6 evaluations" in msg


def test_schedule_too_short_to_compare_raises():
    # no pass, or one pass with nothing to compare it to, is not convergence
    f = pointwise(lambda x: 1.0)
    with pytest.raises(DomainError, match=r"did not converge: last order None, "
                       r"error estimate inf, 0 evaluations"):
        integrate_adaptive(f, ("legendre", 0.0, 1.0), start_order=128, max_order=64)
    with pytest.raises(DomainError, match=r"did not converge: last order 64, "
                       r"error estimate inf, 64 evaluations"):
        integrate_adaptive(f, ("legendre", 0.0, 1.0), start_order=64, max_order=64)
    with pytest.raises(DomainError, match=r"did not converge: last order 8, .* 64 evaluations"):
        integrate_region(pointwise(lambda x, y: 1.0), [("legendre", 0.0, 1.0)] * 2, start_order=8,
                         max_order=8)


def test_region_two_dimensional():
    res = integrate_region(
        pointwise(lambda x, y: math.exp(x + y)),
        [("legendre", 0.0, 1.0), ("legendre", 0.0, 1.0)],
        tol=1e-12,
    )
    assert res.converged
    assert rel(res.value, (math.e - 1) ** 2) < 1e-11


def test_region_with_jacobi_axis():
    # fold the weight into the axis: integral of (1-v)^0.5 (1+v)^0.5 dv
    res = integrate_region(pointwise(lambda v: 1.0), [("jacobi", 0.5, 0.5)], tol=1e-12)
    assert rel(res.value, math.pi / 2) < 1e-12


def test_panels_axis_moves_one_base_rule(monkeypatch):
    # every panel gets the same Legendre base rule, built once per order,
    # and the axis equals the per-panel Legendre rules bit for bit
    panels = geometric_panels(0.0, 10.0, first=0.5)
    builds = []
    jacobi_rule = quadrature._jacobi_rule

    def counted(*args):
        builds.append(args)
        return jacobi_rule(*args)

    monkeypatch.setattr(quadrature, "_jacobi_rule", counted)
    for order in (4, 8, 16):
        builds.clear()
        rule = build_rule(("panels", panels), order)
        assert builds == [(order, 0.0, 0.0)]
        pieces = [build_rule(("legendre", a, b), order) for a, b in panels]
        assert np.array_equal(rule.nodes, np.concatenate([r.nodes for r in pieces]))
        assert np.array_equal(rule.weights, np.concatenate([r.weights for r in pieces]))


def test_region_takes_any_number_of_axes():
    with pytest.raises(DomainError):
        integrate_region(lambda *a: 1.0, [])
    res = integrate_region(lambda *xs: np.ones_like(xs[0]), [("legendre", 0, 1)] * 5,
                           start_order=2, max_order=4)
    assert res.value == pytest.approx(1.0, rel=1e-14, abs=0)


def test_geometric_panels_cover_halfline_tail():
    panels = geometric_panels(0.0, 100.0)
    assert panels[0][0] == 0.0 and panels[-1][1] == 100.0
    # contiguity
    for (a0, b0), (a1, b1) in zip(panels, panels[1:]):
        assert b0 == a1
    res = integrate_region(
        pointwise(lambda z: math.exp(-z)),
        [("panels", panels)],
        tol=1e-12,
        start_order=16,
        max_order=64,
    )
    assert res.converged
    assert rel(res.value, 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the single tensor-sum loop against the hand-written loops it replaced


def _nested_sum(f, rules):
    """Reference: explicit nested loops, last rule innermost, weights
    multiplied from the left, one running sum."""
    acc = 0.0

    def visit(k, xs, w):
        nonlocal acc
        if k == len(rules):
            acc = acc + w * f(*xs)
            return
        for x, wk in zip(rules[k].nodes.tolist(), rules[k].weights.tolist()):
            visit(k + 1, xs + (x,), wk if w is None else w * wk)

    visit(0, (), None)
    return acc


def test_integrate_equals_nested_loops_bit_for_bit():
    rules = [
        build_rule(("jacobi", 0.5, -0.25), 7),
        build_rule(("laguerre", 1.5, 2.0), 5),
        build_rule(("legendre", -1.0, 3.0), 4),
    ]

    def f(*xs):
        return complex(math.cos(sum(xs)), xs[0] * xs[-1]) / (1.0 + xs[0] ** 2)

    for k in (1, 2, 3):
        got = integrate(pointwise(f), *rules[:k])
        assert got == _nested_sum(f, rules[:k])
        assert type(got) is complex


def test_integrate_carries_the_sum_across_chunks():
    # 17^3 points span two chunks; the running total carried from the first
    # chunk into the second keeps the sum equal to the nested loops
    rules = [
        build_rule(("jacobi", 0.5, -0.25), 17),
        build_rule(("laguerre", 1.5, 2.0), 17),
        build_rule(("legendre", -1.0, 3.0), 17),
    ]
    assert math.prod(r.order for r in rules) > quadrature.CHUNK

    def f(a, b, c):
        return complex(math.cos(a + b + c), a * c) / (1.0 + a * a + 0.1 * b)

    assert integrate(pointwise(f), *rules) == _nested_sum(f, rules)


def _recorded(f):
    """pointwise(f), keeping a copy of the node arrays of every call."""
    calls = []

    def values(*xs):
        calls.append([x.copy() for x in xs])
        return pointwise(f)(*xs)

    return values, calls


def _assert_chunks_walk_the_grid(calls, rules):
    """Every call holds at most CHUNK points, and the calls together hold
    the whole grid once, in C order."""
    assert all(len(xs[0]) <= quadrature.CHUNK for xs in calls)
    grid = np.meshgrid(*(r.nodes for r in rules), indexing="ij")
    for k, axis in enumerate(grid):
        np.testing.assert_array_equal(np.concatenate([xs[k] for xs in calls]), axis.ravel())


def _mixed(*xs):
    return complex(math.cos(sum(xs)), xs[0] * xs[-1]) / (1.0 + xs[0] ** 2 + 0.1 * xs[-1])


def test_integrate_one_axis_and_one_chunk_grids_equal_nested_loops():
    one = [build_rule(("jacobi", 0.5, -0.25), 80)]
    two = [build_rule(("laguerre", 1.5, 2.0), 40), build_rule(("legendre", -1.0, 3.0), 64)]
    for rules in (one, two):
        values, calls = _recorded(_mixed)
        assert integrate(values, *rules) == _nested_sum(_mixed, rules)
        assert len(calls) == 1
        _assert_chunks_walk_the_grid(calls, rules)


def test_integrate_walks_whole_blocks_with_a_partial_last_chunk():
    # the last two axes form a 323-point block: 12 rows per chunk, then 1
    rules = [
        build_rule(("jacobi", 0.5, -0.25), 13),
        build_rule(("laguerre", 1.5, 2.0), 17),
        build_rule(("legendre", -1.0, 3.0), 19),
    ]
    values, calls = _recorded(_mixed)
    assert integrate(values, *rules) == _nested_sum(_mixed, rules)
    assert [len(xs[0]) for xs in calls] == [12 * 323, 323]
    _assert_chunks_walk_the_grid(calls, rules)


def test_integrate_walks_a_last_axis_longer_than_a_chunk():
    panels = build_rule(("panels", [(k, k + 1.0) for k in range(65)]), 64)
    assert panels.order == 4160 > quadrature.CHUNK
    rules = [build_rule(("legendre", -1.0, 3.0), 3), panels]
    values, calls = _recorded(_mixed)
    assert integrate(values, *rules) == _nested_sum(_mixed, rules)
    assert [len(xs[0]) for xs in calls] == [4096, 4096, 4096, 192]
    _assert_chunks_walk_the_grid(calls, rules)


@pytest.mark.parametrize("orders", [(80,), (8, 8), (65, 65), (13, 17, 19), (3, 65 * 64)])
def test_integrate_hands_f_read_only_node_arrays(orders):
    # the last axis longer than a chunk is 65 Legendre panels of order 64:
    # one order-4160 Legendre rule would spend seconds in its eigensolve
    rules = [
        build_rule(("panels", [(k, k + 1.0) for k in range(65)]), 64)
        if n == 65 * 64
        else build_rule(("legendre", 0.0, 1.0), n)
        for n in orders
    ]
    assert rules[-1].order == orders[-1]

    def scribble(*xs):
        for x in xs:
            with pytest.raises(ValueError, match="read-only"):
                x += 1.0
        return xs[0] * xs[-1]

    assert integrate(scribble, *rules) == _nested_sum(lambda *xs: xs[0] * xs[-1], rules)


def test_pointwise_calls_once_per_point():
    rules = [build_rule(("legendre", 0.0, 1.0), 3), build_rule(("legendre", 0.0, 1.0), 5)]
    calls = []

    def f(x, y):
        calls.append((x, y))
        return x * y

    assert rel(integrate(pointwise(f), *rules), 0.25) < 1e-14
    assert len(calls) == 15
    assert all(type(x) is float and type(y) is float for x, y in calls)
    calls.clear()
    big = build_rule(("legendre", 0.0, 1.0), 65)
    integrate(pointwise(f), big, big)
    assert len(calls) == 65 * 65 > quadrature.CHUNK
    assert len(set(calls)) == len(calls)


def test_integrate_raises_on_a_non_finite_total():
    rule = build_rule(("legendre", 0.0, 4.0), 8)
    with pytest.raises(DomainError, match=r"\('legendre', 0.0, 4.0\)\] is not finite"):
        integrate(pointwise(lambda x: 1e308), rule)
    with pytest.raises(DomainError, match="is not finite"):
        integrate(pointwise(lambda x: math.nan if x > 2.0 else 1.0), rule)


def test_geometric_panels_reject_a_nonpositive_first_width():
    for first in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="positive first width"):
            geometric_panels(0.0, 10.0, first=first)


@pytest.mark.parametrize("inner, outer, first", [
    (0.0, math.inf, 1.0),
    (-math.inf, 10.0, 1.0),
    (0.0, math.nan, 1.0),
    (0.0, 10.0, math.inf),
])
def test_geometric_panels_reject_non_finite_arguments(inner, outer, first):
    with pytest.raises(DomainError, match="needs finite inner, outer and first") as info:
        geometric_panels(inner, outer, first=first)
    assert len(str(info.value)) < 100


def test_transforms_reject_an_infinite_cut_in_one_short_message():
    with pytest.raises(DomainError, match="needs finite inner, outer and first") as info:
        cone_fourier_laplace(lambda y: 1.0, (0.0 + 1.0j, 0.0j, 0.0j), 3, y_max=math.inf)
    assert len(str(info.value)) < 100


def test_integrate_needs_a_rule():
    with pytest.raises(DomainError):
        integrate(lambda: 1.0)


def _meshgrid_region(f, axes, tol, start_order, max_order):
    """Reference: the meshgrid/nditer tensor pass and its order doubling.
    Returns (value, evaluations), value None when no two passes agree."""
    def axis_points(spec, order):
        if spec[0] == "panels":
            rs = [build_rule(("legendre", a, b), order) for a, b in spec[1]]
            return (np.concatenate([r.nodes for r in rs]),
                    np.concatenate([r.weights for r in rs]))
        r = build_rule(spec, order)
        return r.nodes, r.weights

    def tensor_pass(order):
        pts = [axis_points(spec, order) for spec in axes]
        grids = np.meshgrid(*[p[0] for p in pts], indexing="ij")
        wgrids = np.meshgrid(*[p[1] for p in pts], indexing="ij")
        wtot = wgrids[0]
        for wg in wgrids[1:]:
            wtot = wtot * wg
        total = 0.0
        for entry in np.nditer(list(grids) + [wtot], flags=["refs_ok"]):
            xs = tuple(float(v) for v in entry[:-1])
            total = total + float(entry[-1]) * f(*xs)
        return total, int(wtot.size)

    order, prev, evals = start_order, None, 0
    while order <= max_order:
        cur, n = tensor_pass(order)
        evals += n
        if prev is not None and rel(cur, prev) < tol:
            return cur, evals
        prev = cur
        order *= 2
    return None, evals


@pytest.mark.parametrize("tol", [1e-4, 1e-14])
def test_region_equals_meshgrid_pass(tol):
    axes = [
        ("panels", [(0.0, 1.0), (1.0, 3.0), (3.0, 7.0)]),
        ("jacobi", 0.5, 1.5),
        ("laguerre", 0.5, 2.0),
    ]

    def f(a, b, c):
        return math.exp(-a) * complex(1.0 + b * c, a * b) / (1.0 + a * b * b)

    # orders 2, 4, 8, 16: the 1e-4 case settles at 16, the 1e-14 case never
    want, evals = _meshgrid_region(f, axes, tol, 2, 16)
    if tol < 1e-10:
        # the reference never settles either; the loop raises after the
        # same evaluations instead of returning its last pass
        assert want is None
        with pytest.raises(DomainError, match=f"did not converge: last order 16, .* {evals} "):
            integrate_region(pointwise(f), axes, tol=tol, start_order=2, max_order=16)
        return
    res = integrate_region(pointwise(f), axes, tol=tol, start_order=2, max_order=16)
    assert res.value == want
    assert res.evaluations == evals


def _power_cut_reference(w, s):
    """w^s with arg w in (0, 2pi), one point in cmath: the kernel power
    written out apart from the program's `_power_positive_cut`."""
    a = cmath.phase(w)
    if a <= 0.0:
        a += 2.0 * math.pi
    return cmath.exp(complex(s) * (math.log(abs(w)) + 1j * a))


def _four_loop_sum(params, order, radius):
    """holographic_integral's quadrature, got and wanted: the program's value
    and its four nested loops over the product rule, term by term."""
    zeta = (0.4 + 2.0j, -0.3 + 0.3j, 0.1 - 0.2j)

    def g(tau):
        return 1.0 / ((tau[0] + 1j) ** 2 - tau[1] ** 2) ** 3

    nu = float(params.nu)
    rule_x = build_rule(("legendre", -radius, radius), order)
    rule_st = build_rule(("jacobi", 0.0, nu - 2.0), order)
    cone_nodes = [0.5 * radius * (1.0 + u) for u in rule_st.nodes]
    z1, z2, z3 = zeta
    total = 0.0j
    for s_val, ws in zip(cone_nodes, rule_st.weights):
        for t_val, wt in zip(cone_nodes, rule_st.weights):
            eta1, eta2 = 0.5 * (s_val + t_val), 0.5 * (s_val - t_val)
            for x1, w1 in zip(rule_x.nodes, rule_x.weights):
                tau1 = complex(x1, eta1)
                d1 = z1 - tau1.conjugate()
                for x2, w2 in zip(rule_x.nodes, rule_x.weights):
                    tau2 = complex(x2, eta2)
                    d2 = z2 - tau2.conjugate()
                    kern = _power_cut_reference(d1 * d1 - d2 * d2 - z3 * z3, -nu)
                    total += ws * wt * w1 * w2 * kern * g((tau1, tau2))
    edge_scale = (0.5 * radius) ** (nu - 1.0)
    want = cone_constants(params)["adjoint_const"] * z3**params.ell * 0.5 * edge_scale**2 * total
    return holographic_integral(params, g, zeta, radius=radius, order=order), want


def test_holographic_integral_equals_four_loop_sum():
    # nu = 4: the kernel power is an integer power
    got, want = _four_loop_sum(JuhlParams(3, 3.0, 1), 6, 20.0)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_holographic_integral_equals_four_loop_sum_at_half_integer_nu():
    # nu = 7/2: the kernel power takes the argument in (0, 2pi)
    got, want = _four_loop_sum(JuhlParams(3, 2.5, 1), 6, 20.0)
    assert abs(got - want) <= 1e-13 * abs(want)


# ---------------------------------------------------------------------------
# node_values: whole node arrays first, one call per point when that fails


def _counting(f):
    """f, with the number of calls it got on arrays and on one point."""
    calls = {"arrays": 0, "points": 0}

    def counted(*xs):
        calls["arrays" if isinstance(xs[0], np.ndarray) else "points"] += 1
        return f(*xs)

    return counted, calls


def _agrees(got, want):
    scale = np.maximum(np.abs(got), np.abs(want))
    return bool(np.all(np.abs(got - want) <= 1e-13 * scale))


@settings(max_examples=60, deadline=None)
@given(
    # nonnegative coefficients at positive nodes: no cancellation, so the
    # bound measures rounding, not conditioning (and no subnormal terms)
    coeffs=st.lists(st.just(0.0) | st.floats(0.25, 4.0), min_size=1, max_size=6),
    rate=st.floats(-3.0, 3.0, allow_nan=False),
    power=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    nodes=st.lists(st.floats(0.01, 8.0, allow_nan=False), min_size=1, max_size=40),
)
def test_node_values_agree_with_pointwise(coeffs, rate, power, nodes):
    x = np.array(nodes)
    y = np.array(nodes[::-1])
    funcs = [
        lambda x: sum(c * x**k for k, c in enumerate(coeffs)),
        lambda x: np.exp(rate * x),
        lambda x: (x + 0.5j) ** power,
    ]
    for f in funcs:
        counted, calls = _counting(f)
        got = node_values(counted)(x)
        assert calls == {"arrays": 1, "points": 0}
        assert got.shape == x.shape and _agrees(got, pointwise(f)(x))
    # two coordinates, one argument each or one tuple
    g = lambda x, y: np.exp(-rate * x) * (x + 1j * y) ** power
    assert _agrees(node_values(g)(x, y), pointwise(g)(x, y))
    assert _agrees(node_values(lambda p: g(*p), packed=True)(x, y), pointwise(g)(x, y))


def _in_place(x):
    x *= 2
    return x


def _warns_on_arrays(x):
    if isinstance(x, np.ndarray):
        warnings.warn("array call", UserWarning)
    return 3.0 * x


FALLBACKS = {
    "math.exp": (lambda x: math.exp(-x), [0.5, 1.0, 2.0]),
    "square root of a negative node": (lambda x: x**0.5, [-1.0, 0.0, 4.0]),
    "division by a zero node": (lambda x: 1 / x, [1.0, 0.0, 2.0]),
    "branch on the argument": (lambda x: x if x > 0 else -2.0 * x, [-1.0, 0.5, 3.0]),
    "constant": (lambda x: 1.0, [0.1, 0.2, 0.3]),
    "array of another shape": (lambda x: np.multiply.outer(x, [1.0, 2.0]), [0.1, 0.2, 0.3]),
    "Fraction values": (lambda x: Fraction(1, 3) * (x > 0), [-1.0, 0.5, 3.0]),
    "masked array": (lambda x: np.ma.masked_greater(x, 2.0) * 1.5, [1.0, 3.0]),
    "in-place update": (_in_place, [0.25, 0.5, 0.75]),
    "warning on arrays": (_warns_on_arrays, [1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_node_values_falls_back_to_pointwise(name):
    f, nodes = FALLBACKS[name]
    x = np.array(nodes)
    counted, calls = _counting(f)
    try:
        want = pointwise(f)(x)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            node_values(counted)(x)
        assert str(raised.value) == str(exc)
        assert calls["arrays"] == 1 and calls["points"] >= 1
        return
    with warnings.catch_warnings(record=True) as per_point:
        warnings.simplefilter("always")
        pointwise(f)(x)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = node_values(counted)(x)
    # the per-point call's own warnings, and nothing from the array call
    assert [str(w.message) for w in seen] == [str(w.message) for w in per_point]
    assert calls == {"arrays": 1, "points": len(nodes)}
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert x.tolist() == nodes  # the in-place update never reached the nodes


def test_node_values_ignores_flags_from_masked_branches():
    # np.where discards the 0/0 at the origin: the array result is finite
    # and kept, although the division set numpy's invalid flag
    f = lambda x: np.where(x > 0, np.sin(x) / x, 1.0)
    x = np.array([0.0, 0.5, 2.0])
    counted, calls = _counting(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = node_values(counted)(x)
    assert calls == {"arrays": 1, "points": 0}
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(got, pointwise(f)(x))


def test_node_values_falls_back_for_good():
    counted, calls = _counting(lambda x, y: math.exp(-x) * y)
    values = node_values(counted)
    big = build_rule(("legendre", 0.0, 1.0), 65)
    assert rel(integrate(values, big, big), 0.5 * (1.0 - math.exp(-1.0))) < 1e-14
    assert 65 * 65 > quadrature.CHUNK  # two chunks
    integrate(values, big, big)
    assert calls == {"arrays": 1, "points": 2 * 65 * 65}
