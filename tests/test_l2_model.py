"""Half-line model: coordinates, lift, transform pair, inversion, norms."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobreak import l2_model, quadrature
from holobreak.l2_model import (
    L2Fn,
    fourier_laplace,
    halfplane_norm_sq,
    i_power,
    invert_rchat,
    l2fn,
    phi_apply,
    rchat_apply,
    weight_M,
    weighted_inner,
    weighted_norm_sq,
)
from holobreak.quadrature import build_rule, integrate_region, node_values
from holobreak.rc_transform import RCParams, b_const, c_ell
from holobreak.special_poly import DomainError, jacobi_poly


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def iota(z, v):
    """Slanted coordinates (z, v) -> (x, y) = (z(1-v)/2, z(1+v)/2)."""
    return z * (1 - v) / 2, z * (1 + v) / 2


def iota_inv(x, y):
    return x + y, (y - x) / (x + y)


def pointwise(f):
    """Array form of a one-point callable: f called once per point of the
    node arrays, with one Python scalar per array."""
    return lambda *xs: np.array([f(*p) for p in zip(*(x.tolist() for x in xs))])


def ktype_fn(lam3):
    return l2fn(lambda z: z ** (lam3 - 1) * math.exp(-z), lam3)


Z_SAMPLES = (0.5, 1.0, 2.3, 5.0)
V_SAMPLES = (-0.9, -0.3, 0.0, 0.4, 0.8)
XY_SAMPLES = ((0.5, 0.5), (1.0, 2.0), (3.2, 0.7), (0.1, 4.0))


def test_i_power_cycle():
    assert i_power(0) == 1
    assert i_power(1) == 1j
    assert i_power(2) == -1
    assert i_power(3) == -1j
    assert i_power(4) == 1
    assert i_power(-1) == -1j
    assert i_power(-2) == -1


def test_l2fn_basics():
    f = l2fn(lambda z: z * z, 2.0)
    assert isinstance(f, L2Fn)
    assert f.arity == 1
    assert f.weights == (2.0,)
    assert f(3.0) == 9.0
    g = l2fn(lambda x, y: x + y, 2, 3)
    assert g.arity == 2
    assert g(1.0, 2.0) == 3.0
    with pytest.raises(DomainError):
        l2fn(lambda z: z)
    with pytest.raises(DomainError):
        l2fn(lambda z: z, 1, 2, 3)


def test_iota_values():
    assert iota(2, 0) == (1.0, 1.0)
    x, y = iota(3, 0.5)
    assert rel(x, 0.75) < 1e-15 and rel(y, 2.25) < 1e-15


def test_iota_round_trip_grid():
    for z in Z_SAMPLES:
        for v in V_SAMPLES:
            zz, vv = iota_inv(*iota(z, v))
            assert rel(zz, z) < 1e-14 and rel(vv, v) < 1e-14
    for x, y in XY_SAMPLES:
        xx, yy = iota(*iota_inv(x, y))
        assert rel(xx, x) < 1e-14 and rel(yy, y) < 1e-14


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_iota_round_trip_property(z, v):
    zz, vv = iota_inv(*iota(z, v))
    assert rel(zz, z) < 1e-12 and abs(vv - v) < 1e-12


def test_measure_identity_pointwise():
    # the density x^(1-l1) y^(1-l2) dx dy, rewritten through iota with
    # Jacobian z/2, factors as M^2 times the one-variable density in z and
    # the Jacobi weight in v, up to the fixed power of two below
    for lam1, lam2, ell in ((2, 2, 1), (2.5, 3, 2), (1.5, 1.75, 0), (4, 2, 3)):
        p = RCParams(lam1, lam2, ell)
        a, b = float(p.alpha), float(p.beta)
        for z in Z_SAMPLES:
            for v in V_SAMPLES:
                x, y = iota(z, v)
                lhs = x ** (1 - lam1) * y ** (1 - lam2) * (z / 2)
                m = weight_M(p, z, v)
                rhs = (
                    m * m
                    * 2.0 ** (-a - b - 1)
                    * (1 - v) ** a
                    * (1 + v) ** b
                    * z ** (1 - float(p.lam3))
                )
                assert rel(lhs, rhs) < 1e-12


def test_weight_m_values_and_boundaries():
    p = RCParams(2, 2, 0)
    assert rel(weight_M(p, 2.0, 0.0), 4.0 * 2.0) < 1e-15
    for v in (1.0, -1.0):
        with pytest.raises(DomainError):
            weight_M(p, 1.0, v)
    with pytest.raises(DomainError):
        weight_M(p, 0.0, 0.0)
    with pytest.raises(DomainError):
        weight_M(p, 1.0, 1.5)
    # negative alpha: the factor vanishes at v=1 instead of blowing up
    q = RCParams(0.5, 2, 0)
    assert weight_M(q, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        weight_M(q, 1.0, -1.0)
    # zero exponents never hit the boundary guard
    r = RCParams(1, 1, 0)
    assert rel(weight_M(r, 3.0, 1.0), 3.0) < 1e-15
    assert rel(weight_M(r, 3.0, -1.0), 3.0) < 1e-15


def test_phi_ell_zero_form():
    p = RCParams(2.5, 3, 0)
    lifted = phi_apply(p, lambda z: math.exp(-z))
    assert lifted.weights == (2.5, 3)
    for x, y in XY_SAMPLES:
        expected = x**1.5 * y**2.0 * (x + y) ** -4.5 * math.exp(-(x + y))
        assert rel(lifted(x, y), expected) < 1e-13


def test_phi_ktype_image():
    # lifting z^(lam3-1) e^-z produces the product of the two one-variable
    # ground states decorated by the degree-ell layer
    for lam1, lam2, ell in ((2, 2, 3), (2.5, 3, 2), (4, 2, 1)):
        p = RCParams(lam1, lam2, ell)
        poly = jacobi_poly(ell, p.alpha, p.beta)
        lifted = phi_apply(p, ktype_fn(float(p.lam3)))
        for x, y in XY_SAMPLES:
            expected = (
                x ** (lam1 - 1) * math.exp(-x)
                * y ** (lam2 - 1) * math.exp(-y)
                * (x + y) ** ell
                * float(poly((y - x) / (x + y)))
            )
            assert rel(lifted(x, y), expected) < 1e-12


def test_phi_declared_weight_check():
    p = RCParams(2, 2, 1)
    with pytest.raises(DomainError):
        phi_apply(p, l2fn(lambda z: math.exp(-z), 3.0))
    ok = phi_apply(p, l2fn(lambda z: math.exp(-z), p.lam3))
    assert ok.arity == 2


def test_phi_iota_coordinate_identity():
    for lam1, lam2, ell in ((2, 2.5, 2), (1.5, 1.75, 1), (4, 2, 3)):
        p = RCParams(lam1, lam2, ell)
        poly = jacobi_poly(ell, p.alpha, p.beta)
        h = lambda z: (1 + z) * math.exp(-z)
        lifted = phi_apply(p, h)
        for z in Z_SAMPLES:
            for v in V_SAMPLES:
                lhs = lifted(*iota(z, v))
                rhs = float(poly(v)) * h(z) / weight_M(p, z, v)
                assert rel(lhs, rhs) < 1e-12


def test_lift_point_calls_return_python_scalars():
    p = RCParams(2.5, 3, 2)
    lifted = phi_apply(p, ktype_fn(float(p.lam3)))
    assert type(lifted(1.0, 2.0)) is float
    rebuilt = invert_rchat(2, 2, {0: lambda z: math.exp(-z), 1: lambda z: z * math.exp(-z)})
    assert type(rebuilt(1.0, 2.0)) is complex


def test_quadratures_take_lifts_as_arrays(monkeypatch):
    # a lift reaches the quadrature as its own array formula: node_values
    # hands over its grid, and neither the array guard nor the per-point
    # fallback runs for it.  The profile is an array formula too, so no
    # user function sits inside the lift.
    def refuse(*args):
        raise AssertionError("a lift went through the user-function adapter")

    p = RCParams(2, 2, 1)
    lam3 = float(p.lam3)
    h = l2fn(quadrature.ArrayFormula(lambda z: z ** (lam3 - 1) * np.exp(-z)), lam3)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_on_arrays", refuse)
        patch.setattr(quadrature, "_each_point", refuse)
        lifted = phi_apply(p, h)
        assert isinstance(lifted.func, quadrature.ArrayFormula)
        assert node_values(lifted.func) is lifted.func.grid
        ratio = weighted_norm_sq(lifted) / weighted_norm_sq(h)
        rebuilt = invert_rchat(2, 2, {1: h})
        assert node_values(rebuilt.func, packed=True) is rebuilt.func.grid
        back = rchat_apply(p, rebuilt, 1.3, method="jacobi")
    assert rel(ratio, float(c_ell(2, 2, 1))) < 1e-8
    assert rel(back, h(1.3)) < 1e-9

    # each function a user wrote is wrapped once
    wrapped = []

    def recording(f):
        if not isinstance(f, quadrature.ArrayFormula):
            wrapped.append(f)
        return node_values(f)

    monkeypatch.setattr(l2_model, "node_values", recording)
    h0 = lambda z: math.exp(-z)
    g2 = l2fn(lambda z: z * math.exp(-z), 5.0)
    rebuilt = invert_rchat(2, 2.5, {0: h0, 2: g2})
    assert wrapped == [h0, g2.func]
    rchat_apply(RCParams(2, 2.5, 2), rebuilt, 1.3, method="jacobi")
    assert wrapped == [h0, g2.func]


def test_rchat_of_phi_is_scaled_identity():
    for lam1, lam2, ell in ((2, 2, 0), (2, 2, 2), (2.5, 3, 1), (2.5, 3, 4), (4, 2, 3)):
        p = RCParams(lam1, lam2, ell)
        h = ktype_fn(float(p.lam3))
        lifted = phi_apply(p, h)
        c = float(c_ell(lam1, lam2, ell))
        for z in (0.7, 1.3, 2.6):
            got = rchat_apply(p, lifted, z, method="jacobi")
            want = i_power(-ell) * c * h(z)
            assert abs(got - want) / max(1.0, abs(want)) < 1e-9


def test_rchat_methods_agree_on_integer_weights():
    for lam1, lam2, ell in ((2, 2, 2), (4, 2, 1)):
        p = RCParams(lam1, lam2, ell)
        lifted = phi_apply(p, ktype_fn(float(p.lam3)))
        for z in (0.9, 2.1):
            a = rchat_apply(p, lifted, z, method="legendre")
            b = rchat_apply(p, lifted, z, method="jacobi")
            assert abs(a - b) / max(1.0, abs(b)) < 1e-9


def test_rchat_ell_zero_hand_integral():
    # level zero collapses to the plain average over the segment
    for lam1, lam2 in ((1.5, 1.75), (2, 2)):
        p = RCParams(lam1, lam2, 0)
        F = l2fn(lambda x, y: math.exp(-x - y), lam1, lam2)
        for z in (0.5, 1.0, 3.0):
            got = rchat_apply(p, F, z)
            assert abs(got - z * math.exp(-z)) < 1e-10


def test_rchat_vanishes_off_segment():
    p = RCParams(2, 2, 1)

    def far(x, y):
        s = x + y
        return math.exp(-((s - 10.0) ** 2)) if s > 10.0 else 0.0

    assert rchat_apply(p, far, 2.0) == 0


def test_rchat_errors():
    p = RCParams(2, 2, 1)
    F = phi_apply(p, ktype_fn(float(p.lam3)))
    with pytest.raises(DomainError):
        rchat_apply(p, F, 0.0)
    with pytest.raises(DomainError):
        rchat_apply(p, F, 1.0, method="simpson")

    def jump(x, y):
        # discontinuous across the segment, so estimates never settle
        return 1.0 if (y - x) / (x + y) > 0.1234 else 0.0

    with pytest.raises(DomainError, match="did not converge"):
        rchat_apply(p, jump, 2.0)


@pytest.mark.parametrize("z", [1j, 2 + 0j, complex(2.0, 1e-3), -1.0, math.nan, math.inf],
                         ids=repr)
def test_rchat_rejects_a_point_off_the_half_line(z):
    # a complex z, even one with a zero imaginary part, is not ordered; inf
    # used to pass and leak RuntimeWarnings from the lift before failing
    p = RCParams(2, 2, 1)
    F = phi_apply(p, ktype_fn(float(p.lam3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="needs a real z > 0"):
            rchat_apply(p, F, z)


def _bump(*xs):
    return np.exp(-sum(xs)) * np.prod(xs, axis=0)


COMPLEX_WEIGHT = {
    "phi_apply": lambda: phi_apply(RCParams(2 + 1j, 2, 0), lambda z: np.exp(-z)),
    "rchat_apply": lambda: rchat_apply(RCParams(2 + 1j, 2, 0), _bump, 1.0, method="jacobi"),
    "fourier_laplace": lambda: fourier_laplace(l2fn(_bump, 2 + 1j), 1j),
    "weighted_norm_sq": lambda: weighted_norm_sq(l2fn(_bump, 2 + 1j)),
    "weighted_inner": lambda: weighted_inner(l2fn(_bump, 2, 2 + 1j), l2fn(_bump, 2, 2 + 1j)),
    "halfplane_norm_sq": lambda: halfplane_norm_sq(lambda z: (z + 1j) ** -3, 3 + 1j),
    "weight_M": lambda: weight_M(RCParams(2, 2 + 1j, 0), 1.0, 0.0),
}


@pytest.mark.parametrize("name", COMPLEX_WEIGHT)
def test_a_complex_weight_raises_domain_error(name):
    # float() of a complex weight used to raise a bare TypeError
    with pytest.raises(DomainError, match="must be real"):
        COMPLEX_WEIGHT[name]()


def test_invert_single_component_round_trip():
    p = RCParams(2, 2.5, 2)
    h = ktype_fn(float(p.lam3))
    lifted = phi_apply(p, h)
    G = l2fn(lambda z: rchat_apply(p, lifted, z, method="jacobi"), float(p.lam3))
    rebuilt = invert_rchat(2, 2.5, {2: G})
    for x, y in XY_SAMPLES:
        assert abs(rebuilt(x, y) - lifted(x, y)) / max(1.0, abs(lifted(x, y))) < 1e-8


def test_invert_zero_components():
    rebuilt = invert_rchat(2, 2, {0: lambda z: 0.0, 3: lambda z: 0.0})
    assert rebuilt(1.2, 0.7) == 0
    assert rebuilt.weights == (2, 2)


def test_invert_with_no_level_left_is_zero_on_grids():
    # the empty sum is zeros of the grid's shape, so a point call gives 0j
    # as a lift does
    x, y = np.array([1.2, 0.3]), np.array([0.7, 2.0])
    for rebuilt in (invert_rchat(2, 2, {}), invert_rchat(2, 2, {1: lambda z: z}, L=0)):
        assert rebuilt(1.2, 0.7) == 0j
        values = rebuilt.func.grid(x, y)
        assert values.shape == (2,) and not values.any()


@pytest.mark.parametrize("L", [-1, True, 0.5, "2"])
def test_invert_rejects_a_bad_truncation_level(L):
    with pytest.raises(DomainError):
        invert_rchat(2, 2, {0: lambda z: math.exp(-z)}, L=L)


@pytest.mark.parametrize("keys", [(0, "a"), (1.0,), (True,), (-1,)],
                         ids=["mixed", "float", "bool", "negative"])
def test_invert_rejects_a_bad_level_key(keys):
    # a mixed key set used to raise a bare TypeError from sorted, and 1.0
    # and True passed as levels
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        invert_rchat(2, 2, dict.fromkeys(keys, lambda z: math.exp(-z)))


def test_invert_truncation_drops_high_levels():
    h0 = lambda z: math.exp(-z)
    h3 = lambda z: z * math.exp(-z)
    full = invert_rchat(2, 2, {0: h0, 3: h3})
    cut = invert_rchat(2, 2, {0: h0, 3: h3}, L=1)
    p0 = RCParams(2, 2, 0)
    only0 = phi_apply(p0, h0)
    for x, y in XY_SAMPLES:
        assert abs(cut(x, y) - only0(x, y) / float(c_ell(2, 2, 0))) < 1e-12
    # x = y sits on a zero of the odd-degree layer, so probe off-diagonal
    assert abs(full(1.0, 2.0) - cut(1.0, 2.0)) > 0


def test_invert_residual_monotone():
    # F(x, y) = e^(-x-y) is constant along each segment x + y = z, so its
    # level-ell transform factors as kappa * z^(ell+1) e^(-z); one transform
    # evaluation per level pins kappa.  The residual norm |F - T_L|^2 is
    # integrated in slanted coordinates as |F|^2 - 2 Re<F, T_L> + |T_L|^2:
    # the lifts in T_L carry (1-v)^a (1+v)^b, so each piece gets the v rule
    # whose weight holds its own endpoint powers, and every piece converges.
    lam1, lam2 = 1.5, 1.75
    F = l2fn(lambda x, y: math.exp(-x - y), lam1, lam2)
    comps = {}
    for ell in range(9):
        p = RCParams(lam1, lam2, ell)
        kappa = rchat_apply(p, F, 1.0) * math.e

        def g(z, k=kappa, e=ell):
            return k * z ** (e + 1) * math.exp(-z)

        comps[ell] = g
    p0 = RCParams(lam1, lam2, 0)
    a, b = float(p0.alpha), float(p0.beta)

    def piece(integrand, v_axis, p, q):
        # the measure is 2^(a+b-1) z^(1-a-b) (1-v)^(-a) (1+v)^(-b) dz dv and
        # v_axis carries the weight (1-v)^p (1+v)^q
        def density(z, v):
            x, y = iota(z, v)
            unfold = math.exp(2 * z) * (1 - v) ** (-a - p) * (1 + v) ** (-b - q)
            return 2.0 ** (a + b - 1) * unfold * integrand(x, y)

        res = integrate_region(pointwise(density), [("laguerre", 1 - a - b, 2.0), v_axis], tol=1e-10)
        return res.value

    norm_F = piece(lambda x, y: F(x, y) ** 2, ("jacobi", -a, -b), -a, -b)

    def residual(L):
        trunc = invert_rchat(lam1, lam2, comps, L=L)
        cross = piece(lambda x, y: F(x, y) * trunc(x, y).conjugate(),
                      ("legendre", -1.0, 1.0), 0.0, 0.0)
        norm_T = piece(lambda x, y: abs(trunc(x, y)) ** 2, ("jacobi", a, b), a, b)
        return norm_F - 2 * cross.real + norm_T

    chain = [residual(L) for L in range(9)]
    for before, after in zip(chain, chain[1:]):
        assert after <= before + 1e-9
    assert chain[-1] >= 0
    assert chain[-1] < 0.5 * chain[0]


def test_weighted_integral_masks_overflowing_nodes(monkeypatch):
    # at orders 256 and 512 the deepest Laguerre nodes overflow the e^(2x)
    # unfolding factor; those nodes contribute 0, so the norm stays finite
    lam = 3.0
    assert 2.0 * build_rule(("laguerre", lam - 1, 2.0), 512).nodes.max() > 710.0

    def deep(f, spec, tol):
        return quadrature.integrate_adaptive(f, spec, tol, start_order=256, max_order=512)

    monkeypatch.setattr(l2_model, "integrate_adaptive", deep)
    h = l2fn(lambda z: z ** (lam - 1) * math.exp(-z), lam)
    got = weighted_norm_sq(h)
    assert math.isfinite(got)
    assert rel(got, math.gamma(lam) / 2**lam) < 1e-10


def test_weighted_norm_frozen_values():
    h = ktype_fn(6.0)
    assert rel(weighted_norm_sq(h), math.gamma(6) / 2**6) < 1e-9
    h2 = ktype_fn(4.5)
    assert rel(weighted_norm_sq(h2), math.gamma(4.5) / 2**4.5) < 1e-9
    zero = l2fn(lambda z: 0.0, 3.0)
    assert weighted_norm_sq(zero) == 0.0


def test_weighted_norm_rejects_bare_callables():
    with pytest.raises(DomainError):
        weighted_norm_sq(lambda z: math.exp(-z))


def test_phi_isometry_frozen_ratio():
    p = RCParams(2, 2, 0)
    h = ktype_fn(4.0)
    ratio = weighted_norm_sq(phi_apply(p, h)) / weighted_norm_sq(h)
    assert rel(ratio, 1.0 / 6.0) < 1e-8


def test_phi_isometry_family():
    for lam1, lam2 in ((2, 2), (2.5, 3), (4, 2)):
        for ell in range(5):
            p = RCParams(lam1, lam2, ell)
            lam3 = float(p.lam3)
            family = (
                lambda z: z ** (lam3 - 1) * math.exp(-z),
                lambda z: z**lam3 * math.exp(-z),
                lambda z: z ** (lam3 - 1) * math.exp(-2 * z),
            )
            c = float(c_ell(lam1, lam2, ell))
            for h in family:
                hn = weighted_norm_sq(l2fn(h, lam3))
                lifted = weighted_norm_sq(phi_apply(p, h))
                assert rel(lifted, c * hn) < 1e-7


def test_plancherel_sum():
    lam1, lam2 = 2, 2.5
    lifts = []
    total = 0.0
    for ell in range(4):
        p = RCParams(lam1, lam2, ell)
        h = ktype_fn(float(p.lam3))
        lifts.append((i_power(ell), phi_apply(p, h)))
        total += float(c_ell(lam1, lam2, ell)) * weighted_norm_sq(h)

    F = l2fn(lambda x, y: sum(w * g(x, y) for w, g in lifts), lam1, lam2)
    assert rel(weighted_norm_sq(F), total) < 1e-6


def test_adjoint_identity():
    # transform on one side of the pairing, lift on the other
    p = RCParams(1, 1, 0)
    F = l2fn(lambda x, y: math.exp(-x - y), 1, 1)
    h = l2fn(lambda z: z * math.exp(-z), 2.0)
    lhs = weighted_inner(h, l2fn(lambda z: rchat_apply(p, F, z), 2.0))
    rhs = weighted_inner(phi_apply(p, h.func), F)
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-7

    for ell in (1, 2):
        q = RCParams(2, 2.5, ell)
        lam3 = float(q.lam3)
        h = l2fn(lambda z: z ** (lam3 - 1) * math.exp(-z), lam3)
        other = l2fn(lambda z: z**lam3 * math.exp(-z), lam3)
        F2 = phi_apply(q, other.func)
        transform = l2fn(
            lambda z: rchat_apply(q, F2, z, method="jacobi"), lam3
        )
        lhs = weighted_inner(h, transform)
        rhs = i_power(ell) * weighted_inner(phi_apply(q, h.func), F2)
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-7


def test_weighted_inner_guards_and_linearity():
    f = l2fn(lambda z: z * math.exp(-z), 2.0)
    g = l2fn(lambda z: z * z * math.exp(-z), 2.0)
    other = l2fn(lambda z: math.exp(-z), 3.0)
    with pytest.raises(DomainError):
        weighted_inner(f, other)
    with pytest.raises(DomainError):
        weighted_inner(f, lambda z: z)
    base = weighted_inner(f, g)
    scaled = weighted_inner(f, l2fn(lambda z: 1j * g.func(z), 2.0))
    assert abs(scaled - (-1j) * base) < 1e-12


def test_weighted_norm_unconverged_paths():
    wild = l2fn(lambda z: z * math.cos(200.0 * z * z), 2.0)
    with pytest.raises(DomainError, match="did not converge"):
        weighted_norm_sq(wild)


def test_fourier_laplace_pairs():
    # e^(-z) is the weight-1 K-type: its edge exponent lam - 1 is 0
    F = l2fn(lambda z: math.exp(-z), 1.0)
    for zeta in (1j, 0.5j, 1 + 1j, -0.7 + 0.8j):
        got = fourier_laplace(F, zeta)
        assert abs(got - 1 / (1 - 1j * zeta)) < 1e-10
    for lam in (2.5, 4.0):
        G = l2fn(lambda z: z ** (lam - 1) * math.exp(-z), lam)
        for zeta in (1j, 1 + 0.5j):
            got = fourier_laplace(G, zeta)
            want = math.gamma(lam) * (1 - 1j * zeta) ** (-lam)
            assert abs(got - want) / max(1.0, abs(want)) < 1e-9


def test_fourier_laplace_domain():
    F = l2fn(lambda z: math.exp(-z), 2.0)
    for zeta in (0.0, 1.0, 1 - 1j):
        with pytest.raises(DomainError):
            fourier_laplace(F, zeta)


def test_fourier_laplace_isometry_ratio():
    lam = 3.0
    gamma = math.gamma(lam)

    def G(zeta):
        return gamma * (1 - 1j * zeta) ** (-lam)

    F = l2fn(lambda z: z ** (lam - 1) * math.exp(-z), lam)
    probe = 0.3 + 0.7j
    assert abs(fourier_laplace(F, probe) - G(probe)) < 1e-9

    num = halfplane_norm_sq(G, lam)
    den = math.gamma(lam) / 2**lam
    assert rel(num / den, b_const(lam)) < 1e-12


def _recording(monkeypatch):
    """The IntegralResults of every l2_model integral, in call order."""
    results = []

    def recording(*args, **kwargs):
        res = integrate_region(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(l2_model, "integrate_region", recording)
    return results


@pytest.mark.parametrize("lam", [0.5, 1.1, 1.5, 2.5, 3.0, 4.0])
def test_fourier_laplace_folds_the_declared_weight_into_the_first_panel(monkeypatch, lam):
    # F ~ x^(lam-1) at 0, which the first panel's Jacobi weight carries; at
    # lam <= 3/2 plain Legendre panels do not converge
    results = _recording(monkeypatch)
    F = ktype_fn(lam)
    for zeta in (0.3 + 0.7j, -0.4 + 1.1j):
        want = math.gamma(lam) * (1 - 1j * zeta) ** (-lam)
        assert abs(fourier_laplace(F, zeta) / want - 1) < 1e-12, zeta
    # the edge panel and the other eleven, each at orders 16 and 32
    assert [r.evaluations for r in results] == [48, 528] * 2


def test_fourier_laplace_of_a_bare_callable_reads_exponent_zero():
    # the same rules as a declared weight 1, whose edge exponent is 0
    def f(z):
        return math.exp(-z)

    for zeta in (1j, 1 + 0.5j, -0.7 + 0.8j):
        got = fourier_laplace(f, zeta)
        assert abs(got - 1 / (1 - 1j * zeta)) < 1e-10
        assert got == fourier_laplace(l2fn(f, 1.0), zeta)


def test_fourier_laplace_rejects_a_nonpositive_weight():
    for lam in (0.0, -0.5):
        with pytest.raises(DomainError, match="declared weight lam > 0"):
            fourier_laplace(l2fn(lambda z: math.exp(-z), lam), 1j)
    with pytest.raises(DomainError, match="one-variable"):
        fourier_laplace(l2fn(lambda x, y: 1.0, 2.0, 2.0), 1j)


def test_fourier_laplace_raises_on_an_edge_the_weight_does_not_declare():
    # the declared weight is read as the edge exponent x^(lam - 1), as in
    # weighted_norm_sq: e^(-z) declared at 3/2 leaves x^(-1/2) on the edge
    # panel, which does not converge, so the call raises instead of
    # returning a wrong value
    F = l2fn(lambda z: math.exp(-z), 1.5)
    with pytest.raises(DomainError, match="did not converge"):
        fourier_laplace(F, 1j)
    with pytest.raises(DomainError, match="did not converge"):
        weighted_norm_sq(F)


def test_halfplane_norm_converges_at_half_integer_weight(monkeypatch):
    # one integral over the disc, whose (1 - t)^(lam - 2) edge is the t
    # rule's weight: it converges at order 16.  The periodic axis needs no
    # eigen step, so each of the two passes builds one Jacobi rule
    builds = []
    jacobi_rule = quadrature._jacobi_rule

    def counted(*args):
        builds.append(args)
        return jacobi_rule(*args)

    results = _recording(monkeypatch)
    monkeypatch.setattr(quadrature, "_jacobi_rule", counted)
    lam = 2.5
    gamma = math.gamma(lam)
    num = halfplane_norm_sq(lambda zeta: gamma * (1 - 1j * zeta) ** (-lam), lam)
    assert len(results) == 1 and results[0].converged
    assert results[0].evaluations == 8 * 8 + 16 * 16
    assert builds == [(8, lam - 2, 0.0), (16, lam - 2, 0.0)]
    assert rel(num / (gamma / 2**lam), b_const(lam)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=20.0, exclude_min=True))
def test_halfplane_norm_on_the_disc_meets_b_const(lam):
    gamma = math.gamma(lam)
    num = halfplane_norm_sq(lambda zeta: gamma * (1 - 1j * zeta) ** (-lam), lam)
    assert abs(num / (gamma / 2**lam) / b_const(lam) - 1) < 1e-12


def _psi(lam, k):
    """The half-plane K-type (zeta - i)^k (zeta + i)^(-lam-k), which the
    Cayley map sends to (2i)^(-lam) w^k (1 - w)^lam."""
    return lambda zeta: (zeta - 1j) ** k * (zeta + 1j) ** (-lam - k)


@pytest.mark.parametrize("lam", [1.1, 2.5])
def test_halfplane_norms_of_the_ktypes(lam):
    norms = [halfplane_norm_sq(_psi(lam, k), lam) for k in range(5)]
    for k, norm in enumerate(norms):
        rising = math.prod(lam + j for j in range(k))
        assert abs(norm / norms[0] / (math.factorial(k) / rising) - 1) < 1e-12, k
        closed = 4 ** (1 - lam) * math.pi * math.factorial(k) / ((lam - 1) * rising)
        assert abs(norm / closed - 1) < 1e-12, k


def test_disc_norm_with_the_wrong_weight_exponent_fails(monkeypatch):
    # negative control: (1 - t)^(lam - 1) in place of (1 - t)^(lam - 2)
    # scales the norm of a constant on the disc by (lam - 1)/lam
    def shifted(f, axes, **kwargs):
        axes = [(s[0], s[1] + 1, *s[2:]) if s[0] == "jacobi" else s for s in axes]
        return integrate_region(f, axes, **kwargs)

    monkeypatch.setattr(l2_model, "integrate_region", shifted)
    lam = 2.5
    gamma = math.gamma(lam)
    num = halfplane_norm_sq(lambda zeta: gamma * (1 - 1j * zeta) ** (-lam), lam)
    ratio = num / (gamma / 2**lam) / b_const(lam)
    assert not abs(ratio - 1) < 1e-12
    assert abs(ratio / ((lam - 1) / lam) - 1) < 1e-12


def test_halfplane_norm_raises_when_unconverged():
    def jump(zeta):
        return (1 - 1j * zeta) ** -3 if zeta.real > 0.3 else 0.0

    with pytest.raises(DomainError, match="did not converge"):
        halfplane_norm_sq(jump, 3.0)


def test_halfplane_norm_domain():
    with pytest.raises(DomainError):
        halfplane_norm_sq(lambda z: 1.0, 1.0)
