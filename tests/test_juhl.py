"""Cone-side operator tests: exact symbolic identities for the breaking
operator, quadrature checks for the fiber transform and isometries, and
coarse cross-validation of the two inverse routes."""
import cmath
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobreak import juhl, quadrature, term_algebra
from holobreak.juhl import (
    JUHL_ROUTES,
    ConeLift,
    JuhlParams,
    adjoint_constant,
    bernstein_sato_verify,
    cone_b_const,
    cone_c_ell,
    cone_constants,
    cone_density,
    cone_fourier_laplace,
    holographic_integral,
    invert_juhl,
    juhl_hat_apply,
    juhl_operator_norm_sq,
    juhl_sbo_apply,
    kernel_normalization,
    lorentz_laplacian,
    phi_cone_apply,
    phi_isometry_ratio,
    q_constant,
    q_form,
    relative_kernel,
    _power_positive_cut,
)
from holobreak.l2_model import i_power
from holobreak.quadrature import (
    build_rule,
    geometric_panels,
    integrate_adaptive,
    integrate_region,
    node_values,
)
from holobreak.special_poly import (
    DomainError,
    PoleError,
    gegenbauer_a,
    gegenbauer_poly,
    pochhammer,
)
from holobreak.term_algebra import (
    BranchCutError,
    ExactnessError,
    base_poly,
    canonical_form,
    combine,
    differentiate,
    equal,
    holo_sum,
    monomial,
    qqi,
    scale,
    term,
    to_text,
)

# interior sample points, checked once here so every later use is safe
X3A = (2.0, 0.3, -0.2)
X3B = (1.2, -0.4, 0.5)
P2A = (1.5, 0.4)
P2B = (0.9, -0.35)
P3A = (2.0, 0.3, -0.2)
P3B = (1.1, 0.2, 0.6)
Z3 = (0.4 + 2.0j, -0.3 + 0.3j, 0.1 - 0.2j)
T2 = (0.2 + 1.5j, -0.1 + 0.4j)
S2 = (0.5 + 1.2j, 0.3 - 0.3j)


def rel(a, b) -> float:
    scale_ = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale_


def pointwise(f):
    """Array form of a one-point callable: f called once per point of the
    node arrays, with one Python scalar per array."""
    return lambda *xs: np.array([f(*p) for p in zip(*(x.tolist() for x in xs))])


def iota_cone(y_prime, v):
    """Fiber chart (y', v) -> (y', -sqrt(Q(y')) v) over the one-lower cone."""
    return tuple(y_prime) + (-math.sqrt(q_form(y_prime)) * v,)


def weight_M_cone(params, y_prime, v):
    """Fiber weight Q(y')^((ell+1)/2) (1 - v^2)^(n/2 - lam)."""
    return q_form(y_prime) ** ((params.ell + 1) / 2) * (1 - v * v) ** (params.n / 2 - params.lam)


def coefficient_ladder(params):
    """Re-expansion coefficients of the operator over the full wave operator.

    Substituting (partial wave) = (full wave) + d_n^2 turns the a_k ladder
    into sum_m p_m (full wave)^m d_n^(ell-2m) with
    p_m = sum_(k>=m) C(k, m) a_k; alongside, s_k is the scalar produced by
    k full-wave hits on Q^(-lam):  s_0 = 1,
    s_(k+1) = s_k * 2(lam+k)(2(lam+k) - n + 2).  Exact weights only.
    """
    n, ell, lam = params.n, params.ell, params.lam
    top = ell // 2
    a = [gegenbauer_a(ell, k, params.alpha) for k in range(top + 1)]
    p = [sum(math.comb(k, m) * a[k] for k in range(m, top + 1)) for m in range(top + 1)]
    s = [F(1)]
    for k in range(top):
        s.append(s[-1] * 2 * (lam + k) * (2 * (lam + k) - n + 2))
    return p, s


def shifted_wave(arity, shifts, extra=None):
    """Exact base for Q(z - c), optionally plus a constant."""
    entries = {}
    const = qqi(0)
    for i, c in enumerate(shifts):
        sign = 1 if i == 0 else -1
        e2 = [0] * arity
        e2[i] = 2
        entries[tuple(e2)] = sign
        lin = -2 * sign * c
        if lin:
            e1 = [0] * arity
            e1[i] = 1
            entries[tuple(e1)] = lin
        const = const + sign * c * c
    if extra is not None:
        const = const + extra
    if const:
        entries[(0,) * arity] = const
    return base_poly(arity, entries)


def h_exp(nu):
    """Closed-norm test vector Q'^(nu-1) exp(-y1); its squared norm against
    the (nu)-density is Gamma(nu)^2 / 2."""

    def h(yp):
        return q_form(yp) ** (nu - 1) * math.exp(-yp[0])

    return h


def h_exp_arrays(nu):
    """h_exp(nu) written with numpy, so it runs on whole node arrays."""
    return lambda yp: q_form(yp) ** (nu - 1) * np.exp(-yp[0])


def _generic(lift):
    """The lift's grid as a plain callable, which `cone_fourier_laplace`
    integrates with `rho_exponent` folds instead of the lift's own."""
    return lambda y: lift.grid(*y)


# ---------------------------------------------------------------------------
# parameters and cone geometry


def test_params_validation():
    with pytest.raises(DomainError):
        JuhlParams(2, 2, 0)
    with pytest.raises(DomainError):
        JuhlParams(3, 2, -1)
    with pytest.raises(DomainError):
        JuhlParams(3, 2, True)
    p = JuhlParams(3, F(5, 2), 2)
    assert p.alpha == F(3, 2) and isinstance(p.alpha, F)
    assert p.nu == F(9, 2)
    q = JuhlParams(4, 2.5, 1)
    assert q.alpha == 1.0 and q.nu == 3.5


@pytest.mark.parametrize("ell", [-1, 1.0, True], ids=repr)
def test_params_ell_rule_is_check_ell(ell):
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        JuhlParams(3, 2, ell)


def test_q_form_values():
    assert q_form((1.0, 0.0, 0.0)) == 1.0
    assert abs(q_form(X3A) - 3.87) < 1e-14
    assert q_form((F(2), F(1, 2))) == F(15, 4)
    with pytest.raises(DomainError):
        q_form(())


def test_in_cone_membership():
    # the one cone test: of a point, and of the imaginary part of a tube point
    for y in ((1.0, 0.0, 0.0), X3A, X3B, P2A, P2B):
        assert juhl._cone_point(y, "point") == (y, q_form(y))
    for y in ((1.0, 2.0, 0.0), (-1.0, 0.0, 0.0), ()):
        with pytest.raises(DomainError):
            juhl._cone_point(y, "point")
    assert juhl._require_tube(Z3, 3, "evaluation point") == Z3
    with pytest.raises(DomainError, match="is outside the tube domain"):
        juhl._require_tube((0.1 + 1.0j, 2.0j, 0.0), 3, "evaluation point")


def test_iota_cone_values():
    assert iota_cone(P2A, 0.0) == P2A + (0.0,)
    y = iota_cone((1.0, 0.0), 0.5)
    assert y == (1.0, 0.0, -0.5) and juhl._cone_point(y, "point")[1] == 0.75


def test_fiber_measure_factorization():
    # density(lam) at iota(y', v) times sqrt(Q') equals
    # M^2 times density(nu) at y' times (1 - v^2)^(lam - n/2)
    for lam, ell in [(2.0, 0), (2.5, 1), (3.25, 3)]:
        p = JuhlParams(3, lam, ell)
        for yp in (P2A, P2B):
            for v in (-0.9, -0.3, 0.0, 0.4, 0.8):
                lhs = cone_density(lam, iota_cone(yp, v)) * math.sqrt(q_form(yp))
                m = weight_M_cone(p, yp, v)
                rhs = m * m * cone_density(p.nu, yp) * (1 - v * v) ** (lam - 1.5)
                assert rel(lhs, rhs) < 1e-12


def test_cone_density_values():
    assert rel(cone_density(2.0, P2A), q_form(P2A) ** (1.0 - 2.0)) < 1e-14
    with pytest.raises(DomainError):
        cone_density(2.0, (0.5, 1.0))


# ---------------------------------------------------------------------------
# the operator: small closed forms, route agreement, kernel shape


def test_operator_ell0_is_restriction():
    p = JuhlParams(3, F(5, 2), 0)
    f = holo_sum(3, [term(3, 1, (2, 0, 1)), term(3, 2, (0, 1, 0))])
    out = juhl_sbo_apply(p, f)
    assert equal(out, holo_sum(2, [term(2, 2, (0, 1))]), "exact")


def test_operator_ell1_form():
    # single rung: 2 alpha times the normal derivative, restricted
    p = JuhlParams(3, F(5, 2), 1)
    f = holo_sum(3, [term(3, 1, (2, 0, 1))])
    out = juhl_sbo_apply(p, f)
    assert equal(out, holo_sum(2, [term(2, 3, (2, 0))]), "exact")


def test_routes_agree_exactly():
    poly4 = [term(4, qqi(0, 1), (0, 4, 0, 0)), term(4, -2, (1, 0, 0, 5))]
    cases = [
        (3, F(7, 3), (qqi(1, -1), qqi(0, 2), qqi(2, 1)), None),
        (4, F(7, 2), (qqi(1), qqi(1, 1), qqi(0, -1), qqi(2, 1)), poly4),
    ]
    for n, lam, shifts, extra_terms in cases:
        base = shifted_wave(n, shifts)
        f = holo_sum(n, [term(n, 1, None, [(base, -lam)])] + (extra_terms or []))
        for ell in range(7):
            a = juhl_sbo_apply(JuhlParams(n, lam, ell), f, "coefficients")
            b = juhl_sbo_apply(JuhlParams(n, lam, ell), f, "inflated")
            assert equal(a, b, "exact"), (n, ell)
    with pytest.raises(DomainError):
        juhl_sbo_apply(JuhlParams(3, 2, 0), holo_sum(3, []), "fast")
    assert JUHL_ROUTES == ("coefficients", "inflated")


def test_operator_on_shifted_kernel_power():
    # D [Q(z-c)^(-lam)] restricted equals
    # q(lam) (-c_n)^ell  Q((z'-c', c_n))^(-lam-ell)
    cases = [
        (3, 0, F(2)),
        (3, 1, F(5, 2)),
        (3, 2, F(3)),
        (4, 1, F(7, 2)),
    ]
    for n, ell, lam in cases:
        shifts = (qqi(1, -1), qqi(0, 2), qqi(2, 1), qqi(1, 1))[:n]
        c_last = shifts[-1]
        f = holo_sum(n, [term(n, 1, None, [(shifted_wave(n, shifts), -lam)])])
        lhs = juhl_sbo_apply(JuhlParams(n, lam, ell), f)
        coeff = qqi(q_constant(n, ell, lam))
        for _ in range(ell):
            coeff = coeff * -c_last
        rhs_base = shifted_wave(n - 1, shifts[:-1], extra=-c_last * c_last)
        rhs = holo_sum(n - 1, [term(n - 1, coeff, None, [(rhs_base, -lam - ell)])])
        assert equal(lhs, rhs, "exact"), (n, ell, lam)


def test_joint_kernel_characterization():
    # z_n-degree m survives all levels up to N exactly when m > N
    lam = F(5, 2)
    for m in range(5):
        f = holo_sum(3, [term(3, 1, (2, 0, m))])
        for cap in range(4):
            killed = all(
                not canonical_form(juhl_sbo_apply(JuhlParams(3, lam, j), f))
                for j in range(cap + 1)
            )
            assert killed == (m > cap), (m, cap)


# ---------------------------------------------------------------------------
# eigen-identity and ladder coefficients


def test_eigen_constant_frozen_values():
    assert q_constant(3, 1, F(2)) == 8
    assert q_constant(4, 2, F(7, 2)) == 630
    assert q_constant(5, 0, F(9, 2)) == 1


def test_q_constant_raises_where_the_float_value_is_not_finite():
    with pytest.raises(OverflowError, match="is not finite"):
        q_constant(3, 400, 1e300)
    with pytest.raises(OverflowError, match="is not finite"):
        q_constant(3, 400, complex(1e300, 1))
    assert q_constant(3, 2, 2.5) == 210.0
    assert q_constant(3, 2, 1.5 + 2j) == -185 - 230j
    assert q_constant(3, 400, F(10**300)) > 0  # exact values never overflow


def test_eigen_identity_exact_sweep():
    # at lam = 0, -1, -2, -3 and ell <= -lam every rung z_n^(ell-2j)
    # Q^(-lam-ell+j) is a polynomial, which canonical_form expands in full
    for n in (3, 4, 5):
        for lam in (F(n) - F(1, 2), F(n) + F(1, 3), F(0), F(-1), F(-2), F(-3)):
            for ell in range(7):
                q0, higher = bernstein_sato_verify(JuhlParams(n, lam, ell))
                assert higher == [], (n, lam, ell)
                want = q_constant(n, ell, lam)
                assert q0.re == want and q0.im == 0, (n, lam, ell)


def test_eigen_identity_peel_sees_a_wrong_rung_at_a_polynomial_floor(monkeypatch):
    # one more d_n^2 in the order-2 operator adds 2 lam Q^(-lam-1) = -6 Q^2
    # to its image at lam = -3, where the floor reads as Q^0 and rung j as
    # Q^(j + 1): the peel leaves a rung j = 1
    assert bernstein_sato_verify(JuhlParams(3, F(-3), 2)) == (qqi(672), [])
    real = juhl.gegenbauer_a
    monkeypatch.setattr(juhl, "gegenbauer_a",
                        lambda ell, k, alpha: real(ell, k, alpha) + (ell == 2 and k == 0))
    assert bernstein_sato_verify(JuhlParams(3, F(-3), 2))[1] == [(1, qqi(-6))]


def test_eigen_identity_needs_exact_weight():
    with pytest.raises(ExactnessError):
        bernstein_sato_verify(JuhlParams(3, 2.5, 2))


def test_full_wave_scalars_match_symbolic():
    # s_k from the ladder equals the scalar produced by k full wave hits
    for n, lam in [(3, F(5, 2)), (4, F(3))]:
        p = JuhlParams(n, lam, 6)
        _, s = coefficient_ladder(p)
        base = base_poly(
            n,
            {
                tuple(2 if j == i else 0 for j in range(n)): (1 if i == 0 else -1)
                for i in range(n)
            },
        )
        f = holo_sum(n, [term(n, 1, None, [(base, -lam)])])
        cur = f
        for k in range(1, 4):
            cur = lorentz_laplacian(cur, n)
            want = holo_sum(n, [term(n, s[k], None, [(base, -lam - k)])])
            assert equal(cur, want, "exact"), (n, lam, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unrestricted_operator_matches_a_climb_from_scratch(n, monkeypatch):
    # the orders 0..8 and both routes share one wave ladder per input; each
    # must equal the operator whose ladder is rebuilt for it alone, every
    # wave a combine of whole differentiate calls
    lam = F(7, 2)
    inputs = [
        holo_sum(n, [term(n, 1, None, [(juhl._wave_base(n), -lam)])]),
        holo_sum(n, [term(n, F(2, 3), (1,) + (0,) * (n - 1), [(juhl._wave_base(n), -lam)]),
                     term(n, qqi(0, 1), (0,) * (n - 1) + (2,), [])]),
    ]
    cases = [(f, ell, route) for f in inputs for ell in range(9) for route in JUHL_ROUTES]
    shared = [to_text(juhl._unrestricted_operator(JuhlParams(n, lam, ell), f, route))
              for f, ell, route in cases]

    def laplacian(g, m):
        return combine(g.arity, [(1 if j == 0 else -1, differentiate(g, j, 2)) for j in range(m)])

    monkeypatch.setattr(juhl, "_wave_ladder", lambda f: [f])
    monkeypatch.setattr(juhl, "lorentz_laplacian", laplacian)
    for (f, ell, route), text in zip(cases, shared):
        term_algebra._lattice.cache_clear()
        got = juhl._unrestricted_operator(JuhlParams(n, lam, ell), f, route)
        assert to_text(got) == text, (ell, route)


@pytest.mark.parametrize("nvars", [True, False, 2.0, np.int64(2), "2"])
def test_lorentz_laplacian_rejects_non_int_nvars(nvars):
    with pytest.raises(DomainError):
        lorentz_laplacian(monomial(3, (2, 2, 2)), nvars)


def test_ladder_identities():
    for n, lam in [(3, F(5, 2)), (4, F(4)), (5, F(11, 2))]:
        for ell in range(7):
            p = JuhlParams(n, lam, ell)
            ps, ss = coefficient_ladder(p)
            assert len(ps) == ell // 2 + 1 and len(ss) == ell // 2 + 1
            top = pochhammer(2 * p.alpha, ell) / math.factorial(ell)
            assert ps[0] == top, (n, lam, ell)
            if ell >= 2:
                assert ss[1] == 2 * lam * (2 * lam - n + 2)
            assert ps[0] * 2**ell * pochhammer(lam, ell) == q_constant(n, ell, lam)


# ---------------------------------------------------------------------------
# lifts and the fiber transform


def test_lift_matches_weighted_fiber_profile():
    for n, lam, ell in [(3, 2.5, 0), (3, 2.5, 2), (3, 3.0, 1), (4, 4.0, 2)]:
        p = JuhlParams(n, lam, ell)
        h = lambda yp: 1.0 + 0.5 * yp[1]
        lift = phi_cone_apply(p, h)
        poly = gegenbauer_poly(ell, float(p.alpha))
        yp = P2A if n == 3 else P3A
        for v in (-0.7, 0.1, 0.6):
            lhs = weight_M_cone(p, yp, v) * lift(iota_cone(yp, v))
            rhs = poly(v) * h(yp)
            assert rel(lhs, rhs) < 1e-12, (n, lam, ell, v)


def test_lift_rejects_points_off_the_cone():
    lift = phi_cone_apply(JuhlParams(3, 2.5, 1), lambda yp: 1.0)
    assert lift(X3A) != 0.0
    for bad, message in [
        ((1.0, 2.0, 0.0), "is not in the 3-dimensional cone"),
        ((-2.0, 0.3, -0.2), "is not in the 3-dimensional cone"),
        (P2A, "is not in the 3-dimensional cone"),
        ((2.0, 0.3 + 0.1j, -0.2), "must be real"),
    ]:
        with pytest.raises(DomainError, match=message):
            lift(bad)


def test_lift_grid_checks_every_point():
    lift = phi_cone_apply(JuhlParams(3, 2.5, 1), lambda yp: 1.0 + 0.5 * yp[1])
    y1, y2, y3 = (np.array(c) for c in ([2.0, 1.2, 1.0, 2.0], [0.3, -0.4, 2.0, 0.1],
                                        [-0.2, 0.5, 0.0, 0.1]))
    with pytest.raises(DomainError, match=r"point \(1\.0, 2\.0, 0\.0\) is not in the "
                       r"3-dimensional cone"):
        lift.grid(y1, y2, y3)
    got = lift.grid(y1[:2], y2[:2], y3[:2])
    for k, point in enumerate((X3A, X3B)):
        assert rel(got[k], lift(point)) < 1e-14
    assert type(lift(X3A)) is float


def test_node_values_hands_a_lift_its_own_grid(monkeypatch):
    # no array guard and no per-point fallback for a library array formula
    def refuse(*args):
        raise AssertionError("a lift went through the user-function adapter")

    # the profile is an array formula too, so no user function sits inside
    h = quadrature.ArrayFormula(lambda y1, y2: 1.0 + 0.5 * y2)
    lift = phi_cone_apply(JuhlParams(3, 2.5, 1), h)
    monkeypatch.setattr(quadrature, "_on_arrays", refuse)
    monkeypatch.setattr(quadrature, "_each_point", refuse)
    for packed in (False, True):
        assert node_values(lift, packed=packed) == lift.grid
    y = [np.array(c) for c in ([2.0, 1.2], [0.3, -0.4], [-0.2, 0.5])]
    assert np.array_equal(node_values(lift, packed=True)(*y), lift.grid(*y))


def test_lift_isometry_ratio_pointwise():
    for n, lam, ells, pts in [
        (3, 2.5, (0, 1, 2, 3, 4), (P2A, P2B)),
        (3, 4.0, (0, 2), (P2A,)),
        (4, 4.0, (0, 1, 2, 3, 4), (P3A, P3B)),
    ]:
        for ell in ells:
            p = JuhlParams(n, lam, ell)
            c = cone_constants(p)["c_ell"]
            for yp in pts:
                ratio = phi_isometry_ratio(p, h_exp(float(p.nu)), yp)
                assert rel(ratio, c) < 1e-7, (n, lam, ell, yp)


def test_fiber_transform_constant_profile():
    p = JuhlParams(3, 2.5, 0)
    got = juhl_hat_apply(p, lambda y: 1.0, P2A, method="legendre")
    assert rel(got, 2.0 * math.sqrt(q_form(P2A))) < 1e-10


def test_fiber_transform_inverts_lift():
    for n, lam, ells in [(3, 2.5, (0, 1, 2, 3)), (4, 4.0, (0, 2))]:
        h = lambda yp: 1.0 + 0.5 * yp[1] - 0.25 * yp[0]
        for ell in ells:
            p = JuhlParams(n, lam, ell)
            lift = phi_cone_apply(p, h)
            c = cone_constants(p)["c_ell"]
            for yp in (P2A, P2B) if n == 3 else (P3A,):
                got = juhl_hat_apply(p, lift, yp, method="jacobi")
                want = i_power(-ell) * c * h(yp)
                assert rel(got, want) < 1e-8, (n, lam, ell, yp)


# per dimension: the lam = n closed-form check's tolerance, and the base
# point and transform argument at which it runs
GRID_CHECKS = {
    3: (1e-10, P2A, Z3),
    4: (1e-6, P3A, (0.1 + 3j, 0.2 - 0.5j, -0.1 + 0.2j, 0.3j)),
    5: (1e-6, P3A + (0.1,), (0.1 + 3j, 0.2 - 0.5j, -0.1 + 0.2j, 0.3j, 0.1j)),
}


@pytest.mark.parametrize("n", sorted(GRID_CHECKS))
def test_transforms_evaluate_lifts_on_grids(monkeypatch, n):
    # a lift reaches the fiber and cone quadratures on node arrays, never
    # one point at a time
    def refuse(self, y):
        raise AssertionError("lift evaluated one point at a time")

    monkeypatch.setattr(ConeLift, "__call__", refuse)
    tol, yp, z = GRID_CHECKS[n]
    h = lambda yp: 1.0 + 0.5 * yp[1] - 0.25 * yp[0]
    p = JuhlParams(n, n - 0.5, 1)
    got = juhl_hat_apply(p, phi_cone_apply(p, h), yp, method="jacobi")
    assert rel(got, i_power(-1) * cone_constants(p)["c_ell"] * h(yp)) < 1e-8

    # level 0 of the multiplication route at lam = n: the lift of
    # h = Q'^(lam - (n-1)/2) exp(-y1) is Q^(lam - n/2) exp(-y1), whose
    # transform is the closed form b_n k_n Q(zeta + i e1)^(-lam)
    lam = float(n)
    p = JuhlParams(n, lam, 0)
    got = cone_fourier_laplace(phi_cone_apply(p, h_exp(lam - (n - 3) / 2)), z, n,
                               y_max=35.0, tol=tol)
    shifted = (z[0] + 1j,) + z[1:]
    want = (cone_constants(p)["b_n"] * kernel_normalization(n, lam)
            * _power_positive_cut(q_form(shifted), -lam))
    assert rel(got, want) < tol


def test_fiber_transforms_read_h_once_per_pass():
    # along one fiber every node shares the base point, so a lift reads h
    # once per quadrature pass: after one refused array call, one point for
    # each of the two passes (orders 16 and 32), and for the isometry ratio
    # one more in its denominator |h(y')|^2
    p = JuhlParams(3, 3.0, 1)
    h = lambda y: math.exp(-y[0]) * (1.0 + 0.5 * y[1])
    calls = {"arrays": 0, "points": 0}
    ratio = phi_isometry_ratio(p, _counted(h, calls), P2A)
    assert calls == {"arrays": 1, "points": 3}
    assert rel(ratio, cone_c_ell(p)) < 1e-12
    calls = {"arrays": 0, "points": 0}
    got = juhl_hat_apply(p, phi_cone_apply(p, _counted(h, calls)), P2A, method="jacobi")
    assert calls == {"arrays": 1, "points": 2}
    assert rel(got, i_power(-1) * cone_c_ell(p) * h(P2A)) < 1e-12


def test_fiber_transform_parity_kills_odd_profiles():
    p = JuhlParams(3, 2.5, 2)
    odd = lambda y: y[2] * math.exp(-y[0])
    assert abs(juhl_hat_apply(p, odd, P2A, method="legendre")) < 1e-12


def test_fiber_transform_errors():
    p = JuhlParams(3, 2.5, 0)
    with pytest.raises(DomainError):
        juhl_hat_apply(p, lambda y: 1.0, (1.0, 2.0))
    with pytest.raises(DomainError, match="is not in the cone"):
        phi_isometry_ratio(p, lambda y: 1.0, (1.0, 2.0))
    # a base point of the wrong length is reported as such, not as outside the cone
    p4 = JuhlParams(4, 9.5, 0)
    for point in ((1.5, 0.4, 0.2, 0.1, -0.15, 0.05), (1.5, 0.4)):
        with pytest.raises(DomainError, match=f"has {len(point)} coordinates; n = 4 needs n - 1 = 3"):
            phi_isometry_ratio(p4, lambda y: 1.0, point)
    # the fiber coefficient checks the base point's length the same way
    with pytest.raises(DomainError, match="has 2 coordinates; n = 4 needs n - 1 = 3"):
        juhl_hat_apply(JuhlParams(4, 4.0, 0), lambda y: y[0], (1.5, 0.4), method="legendre")
    with pytest.raises(DomainError):
        juhl_hat_apply(p, lambda y: 1.0, P2A, method="simpson")
    jump = lambda y: 1.0 if y[2] > 0.1234 * y[0] else 0.0
    with pytest.raises(DomainError, match="did not converge"):
        juhl_hat_apply(p, jump, P2A, method="legendre")


# ---------------------------------------------------------------------------
# constants


def test_constants_cross_identities():
    for n, lam, ell in [
        (3, 3.0, 0),
        (3, 2.5, 1),
        (3, 4.0, 3),
        (4, 4.0, 2),
        (5, 5.25, 1),
    ]:
        p = JuhlParams(n, lam, ell)
        c = cone_constants(p)
        # transform constant against the two Fourier isometry constants
        assert rel(c["r_ell"] * c["b_n"], c["b_prev"]) < 1e-12, (n, lam, ell)
        # fiber norm against the Gamma closed form
        closed = (
            math.pi
            * 2.0 ** (n - 2 * lam)
            * math.gamma(2 * lam + ell - n + 1)
            / (
                math.factorial(ell)
                * (lam + ell - (n - 1) / 2)
                * math.gamma(lam - (n - 1) / 2) ** 2
            )
        )
        assert rel(c["c_ell"], closed) < 1e-12, (n, lam, ell)
        # adjoint constant against conj(kernel) times the eigen constant
        k = c["kernel_const"]
        alt = (-1) ** ell * k.conjugate() * float(q_constant(n, ell, lam))
        assert rel(c["adjoint_const"], alt) < 1e-12, (n, lam, ell)


def test_fourier_constant_rank_one_closed_form():
    # the m = 1 member must collapse by Legendre duplication to the
    # classical half-plane Parseval constant 2 pi 2^(1-2s) Gamma(2s-1),
    # the same form the rank-one module verifies by quadrature
    for s in (2.0, 2.5, 3.0, 4.25):
        classical = 2.0 * math.pi * 2.0 ** (1.0 - 2.0 * s) * math.gamma(2.0 * s - 1.0)
        assert rel(cone_b_const(1, s), classical) < 1e-12, s


def test_upper_kernel_matches_transform_of_inverse_density():
    # the reproducing kernel of the weighted tube space is the transform of
    # the reciprocal cone density divided by the isometry constant; this
    # pins the product of the kernel and Fourier constants absolutely
    lam = 3.0
    p = JuhlParams(3, lam, 0)
    b3 = cone_constants(p)["b_n"]
    k3 = kernel_normalization(3, lam)
    F_fn = lambda y: q_form(y) ** (lam - 1.5)
    val = cone_fourier_laplace(F_fn, Z3, 3, rho_exponent=lam - 1.5, y_max=35.0, tol=1e-6)
    want = k3 * _power_positive_cut(q_form(Z3), -lam)
    assert rel(val / b3, want) < 1e-6


def test_constants_frozen_level_zero():
    p = JuhlParams(3, 3.0, 0)
    c = cone_constants(p)
    assert rel(c["c_ell"], 3.0 * math.pi / 8.0) < 1e-12
    assert rel(c["r_ell"], 1.0 / math.pi**2) < 1e-12
    assert rel(juhl_operator_norm_sq(p), 3.0 / (8.0 * math.pi)) < 1e-12


def test_fiber_norm_against_quadrature():
    # plain Legendre nodes, so the check does not share the rule's own
    # Gamma-based normalization
    c = cone_constants(JuhlParams(3, 3.0, 0))["c_ell"]
    res = integrate_adaptive(
        pointwise(lambda v: (1.0 - v * v) ** 1.5), ("legendre", -1.0, 1.0), tol=1e-11
    )
    assert res.converged and rel(c, res.value) < 1e-10
    assert rel(c, 3.0 * math.pi / 8.0) < 1e-12


def test_operator_norm_positivity_sweep():
    for n in (3, 4, 5):
        for bump in (0.5, 1.0, 7.0 / 3.0):
            lam = n - 1 + bump
            for ell in range(13):
                val = juhl_operator_norm_sq(JuhlParams(n, lam, ell))
                assert val > 0, (n, lam, ell)


def _mp_operator_norm_sq(n, lam, ell):
    """r_ell c_ell of the cone at (n, lam, ell) in mpmath."""
    lam, g = mpmath.mpf(lam), mpmath.gamma
    alpha = lam - mpmath.mpf(n - 1) / 2
    r = (mpmath.sqrt(2) * g(lam + ell - mpmath.mpf(n - 1) / 2) * g(lam + ell - n + 2)
         / ((2 * mpmath.pi) ** 1.5 * g(lam - mpmath.mpf(n) / 2) * g(lam - n + 1)))
    c = (mpmath.pi * 2 ** (1 - 2 * alpha) * g(ell + 2 * alpha)
         / (mpmath.factorial(ell) * (ell + alpha) * g(alpha) ** 2))
    return r * c


@pytest.mark.parametrize("n, lam, ell", [(4, 200.5, 2), (3, 150.5, 1), (5, 300.25, 3)])
def test_operator_norm_past_gamma_overflow_matches_mpmath(n, lam, ell):
    # a Gamma factor overflows, or the two Gamma products of r_ell do and
    # their quotient is inf / inf; the constant is finite
    with mpmath.workdps(40):
        want = _mp_operator_norm_sq(n, lam, ell)
        got = juhl_operator_norm_sq(JuhlParams(n, lam, ell))
        assert float(abs((got - want) / want)) < 1e-12


def test_constants_flag_gamma_poles():
    with pytest.raises(PoleError):
        cone_constants(JuhlParams(3, 2.0, 0))  # b_n hits Gamma(0)
    with pytest.raises(DomainError):
        cone_constants(JuhlParams(3, 2 + 1j, 0))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_constant_rank_one_anchor():
    # n = 1 tube is the upper half plane; lam = 1 is the unweighted
    # Bergman space with the classical kernel -1/pi (z - conj(w))^(-2)
    assert rel(kernel_normalization(1, 1.0), -1.0 / math.pi) < 1e-14
    assert rel(kernel_normalization(2, 4.0), 576.0 / math.pi**2) < 1e-12


def test_kernel_constant_self_reproducing_rank_one():
    # integrating K(. , w) against K(z, .) over the half plane with weight
    # eta^(2 nu - 2) must return K(z, w); absolute calibration check
    nu = 2.0
    k = kernel_normalization(1, nu).real
    za, wa = 0.5 + 1.2j, 0.2 + 1.5j

    def K(a, b):
        return k * (a - b.conjugate()) ** (-2 * nu)

    radius = 14.0

    def pair(x, u):
        tau = complex(x, 0.5 * radius * (1.0 + u))
        return K(za, tau) * K(tau, wa)

    res = integrate_region(
        pointwise(pair),
        [("legendre", -radius, radius), ("jacobi", 0.0, 2.0 * nu - 2.0)],
        tol=1e-5,
        start_order=16,
        max_order=64,
    )
    assert res.converged
    edge = (0.5 * radius) ** (2.0 * nu - 1.0)
    assert rel(edge * res.value, K(za, wa)) < 2e-3


def test_power_positive_cut_branch():
    val = _power_positive_cut(-4.0 + 0j, -2.0)
    assert abs(val - 0.0625) < 1e-14
    above = _power_positive_cut(complex(-4.0, 1e-9), -2.0)
    below = _power_positive_cut(complex(-4.0, -1e-9), -2.0)
    assert abs(above - below) < 1e-9  # continuous across the negative axis
    with pytest.raises(BranchCutError):
        _power_positive_cut(1.0 + 0j, -2.0)
    with pytest.raises(PoleError):
        _power_positive_cut(0j, -2.0)


def _exp_log_power(w, s):
    """w^s as exp(s (log|w| + i arg w)), arg w in (0, 2pi), in cmath."""
    a = cmath.phase(w)
    if a <= 0.0:
        a += 2.0 * math.pi
    return cmath.exp(complex(s) * (math.log(abs(w)) + 1j * a))


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(-12, 12),
    points=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(1e-6, 2.0 * math.pi - 1e-6)),
        min_size=1,
        max_size=6,
    ),
)
def test_power_positive_cut_integer_exponents_match_exp_log(s, points):
    # an integer exponent takes the powering path; off the cut it agrees
    # with the exp/log formula on one point and on an array
    ws = [cmath.rect(10.0**e, a) for e, a in points]
    got = _power_positive_cut(np.array(ws), s)
    assert got.shape == (len(ws),)
    for w, value in zip(ws, got):
        want = _exp_log_power(w, s)
        one = _power_positive_cut(w, s)
        assert isinstance(one, np.complexfloating)
        assert abs(one - want) <= 1e-13 * abs(want)
        assert abs(value - want) <= 1e-13 * abs(want)


def test_power_positive_cut_integer_exponent_errors_on_arrays():
    w = np.array([-1.0 + 2.0j, 0j, 3.0 + 0j])
    for s in (-3, 0, 2):
        with pytest.raises(PoleError):  # the zero base is reported first
            _power_positive_cut(w, s)
    w = np.array([[-1.0 + 2.0j, 2.0 + 1e-12j], [3.0 + 0j, -4.0 + 0j]])
    for s in (-4, 0, 3, -2.5):
        with pytest.raises(BranchCutError, match=r"\(2\+1e-12j\)"):
            _power_positive_cut(w, s)
    # s = 0 and s = 1 keep the scalar in, scalar out rule and copy
    assert isinstance(_power_positive_cut(-4.0 + 0j, 0), np.complexfloating)
    assert _power_positive_cut(-4.0 + 0j, 1) == -4.0
    arr = np.array([-1.0 + 2.0j, 2.0j])
    same = _power_positive_cut(arr, 1)
    assert np.array_equal(same, arr) and not np.shares_memory(same, arr)
    assert np.array_equal(_power_positive_cut(arr, 0), np.ones(2))


@pytest.mark.parametrize("s", [-3, -2.5])
def test_power_positive_cut_threshold_both_sides(s):
    # |arg w| < 1e-10 is on the cut, above and below the axis; just outside
    # it the value follows the branch: 1 just above, e^(2 pi i s) just below
    for im in (0.5e-10, -0.5e-10, 0.99e-10, -0.99e-10):
        with pytest.raises(BranchCutError):
            _power_positive_cut(np.array([-1.0 + 0j, 1.0 + 1j * im]), s)
        with pytest.raises(BranchCutError):
            _power_positive_cut(complex(1.0, im), s)
    w = np.array([complex(1.0, 2e-10), complex(1.0, -2e-10)])
    got = _power_positive_cut(w, s)
    assert abs(got[0] - 1.0) < 1e-9
    assert abs(got[1] - cmath.exp(2j * math.pi * s)) < 1e-9


NONINTEGER_EXPONENTS = [-3.5, -2.5, -0.75, 0.5, 1.7, -1.25 + 0.5j, 0.3 - 2.0j, 2j]


@pytest.mark.parametrize("s", NONINTEGER_EXPONENTS, ids=repr)
def test_power_positive_cut_is_continuous_across_the_negative_axis(s):
    # arg w passes through pi there, inside (0, 2 pi): the values at
    # -r + i eps r and -r - i eps r differ by about 2 |s| eps relative
    for r in (1e-3, 0.5, 1.0, 7.0, 1e3):
        for eps in (1e-9, 1e-7, 1e-5):
            above, below = _power_positive_cut(np.array([complex(-r, eps * r), complex(-r, -eps * r)]), s)
            assert abs(above - below) <= 10 * abs(s) * eps * abs(above), (r, eps)


@settings(max_examples=200, deadline=None)
@given(
    s=st.tuples(st.floats(-6.0, 6.0), st.floats(-3.0, 3.0)).map(lambda c: complex(*c)).filter(
        lambda s: s.imag != 0.0 or not s.real.is_integer()),
    e=st.floats(-3.0, 3.0),
    theta=st.floats(1e-6, 2.0 * math.pi - 1e-6),
)
def test_power_positive_cut_noninteger_exponents_match_mpmath(s, e, theta):
    # off the integers w^s is exp(s (log r + i theta)) with theta = arg w in
    # (0, 2 pi), here against mpmath at 30 digits
    r = 10.0**e
    got = _power_positive_cut(cmath.rect(r, theta), s)
    with mpmath.workdps(30):
        want = complex(mpmath.exp(mpmath.mpc(s) * (mpmath.log(r) + 1j * mpmath.mpf(theta))))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_relative_kernel_agrees_with_principal_branch_off_cut():
    p = JuhlParams(3, 2.5, 2)
    w = tuple(zc - tc.conjugate() for zc, tc in zip(Z3, T2)) + (Z3[2],)
    qv = q_form(w)
    assert qv.imag > 0  # both conventions coincide in the upper half plane
    want = Z3[2] ** 2 * qv ** complex(-p.nu)
    assert rel(relative_kernel(p, Z3, T2), want) < 1e-12


def test_relative_kernel_regular_on_hyperplane():
    flat = (0.4 + 2.0j, -0.3 + 0.3j, 0.0)
    assert relative_kernel(JuhlParams(3, 2.5, 1), flat, T2) == 0
    val = relative_kernel(JuhlParams(3, 2.5, 0), flat, T2)
    assert val != 0 and cmath.isfinite(val)


def test_relative_kernel_domain_errors():
    p = JuhlParams(3, 3.0, 0)
    with pytest.raises(DomainError):
        relative_kernel(p, (1.0 + 0.1j, 2.0 + 1j, 0.0), T2)
    with pytest.raises(DomainError):
        relative_kernel(p, Z3, (0.2 - 1.5j, -0.1 + 0.4j))


def test_kernel_integral_reproduces_kernel_vectors():
    # pairing the two-domain kernel with a lower reproducing-kernel vector
    # returns the two-domain kernel itself at the anchor point
    p = JuhlParams(3, 3.0, 1)
    nu = 4
    k_low = kernel_normalization(2, nu)

    def g(tau):
        d1 = tau[0] - S2[0].conjugate()
        d2 = tau[1] - S2[1].conjugate()
        return k_low * (d1 * d1 - d2 * d2) ** (-nu)

    got = holographic_integral(p, g, Z3, radius=8.0, order=32)
    want = cone_constants(p)["adjoint_const"] * relative_kernel(p, Z3, S2)
    assert rel(got, want) < 3e-2


def test_kernel_integral_raises_where_the_grid_touches_the_cut(monkeypatch):
    # a tube point never puts the kernel argument on [0, inf), so the tube
    # check is lifted here to reach the grid-wide cut check: with the real
    # parts on rule nodes and a space-like imaginary part, one grid point
    # has a positive real kernel argument
    monkeypatch.setattr(juhl, "_require_tube", lambda z, dim, what: tuple(z))
    order, radius = 5, 8.0
    x = build_rule(("legendre", -radius, radius), order).nodes
    zeta = (complex(x[1], 0.5), complex(x[3], 0.0), 100j)
    with pytest.raises(BranchCutError, match=r"within 1e-10 of the \[0, inf\) cut"):
        holographic_integral(JuhlParams(3, 3.0, 0), lambda t: 1.0, zeta, radius, order)


def test_kernel_integral_guards():
    with pytest.raises(DomainError):
        holographic_integral(JuhlParams(4, 4.0, 0), lambda t: 1.0, Z3 + (0.1j,))
    with pytest.raises(DomainError):
        holographic_integral(JuhlParams(3, 3.0, 0), lambda t: 1.0, (1.0, 2.0 + 1j, 0.0))


# ---------------------------------------------------------------------------
# cone Fourier-Laplace transform and inversion


def test_lower_transform_closed_form():
    # FL of Q'^(nu-1) exp(-y1) over the 2-cone, against the shifted-power
    # closed form, via light-cone coordinates
    for nu in (3, 4):
        const = math.gamma(nu) ** 2 * 2.0 ** (2 * nu - 1)
        for tau in (T2, S2):
            a = tau[0] + tau[1]
            b = tau[0] - tau[1]

            def g(s, t):
                return 0.5 * cmath.exp(0.5j * (s * a + t * b))

            res = integrate_region(
                pointwise(g), [("laguerre", float(nu - 1), 0.5)] * 2, tol=1e-10, max_order=128
            )
            assert res.converged
            shifted = (tau[0] + 1j) ** 2 - tau[1] ** 2
            want = const * (-shifted) ** (-nu)
            assert rel(res.value, want) < 1e-8, (nu, tau)


def test_transform_coordinates_agree():
    # disk coordinates against light-cone coordinates on the same integrand;
    # the light-cone sides are squared (s = p^2, t = q^2) so the sqrt(st)
    # half-measure becomes polynomial and the rule converges spectrally
    F_fn = lambda y: math.exp(-2.0 * y[0])
    got = cone_fourier_laplace(F_fn, Z3, 3, y_max=30.0, tol=1e-8)

    def slanted(p, q, v):
        s, t = p * p, q * q
        y = (0.5 * (s + t), 0.5 * (s - t), -p * q * v)
        pair = sum(yc * zc for yc, zc in zip(y, Z3))
        return F_fn(y) * cmath.exp(1j * pair) * 2.0 * p * p * q * q

    side = math.sqrt(30.0)
    res = integrate_region(
        pointwise(slanted),
        [("panels", [(0.0, 1.2), (1.2, 2.8), (2.8, side)])] * 2
        + [("legendre", -1.0, 1.0)],
        tol=1e-8,
        max_order=48,
    )
    assert res.converged
    assert rel(got, res.value) < 1e-6


def two_branch_transform(F, zeta, n, rho_exponent=0.0, y_max=40.0, tol=1e-6,
                         start_order=8, max_order=48):
    """The cone transform as it was once written, in hyperspherical
    coordinates with one branch for n = 3 and one for n = 4 (the polar
    angle phi on a Legendre rule, with sin(phi) in the Jacobian): an
    independent reference for the iterated fiber chart.  Returns the
    `integrate_region` result, whose error estimate bounds the comparison."""
    re = float(rho_exponent)
    axes = [
        ("panels", geometric_panels(0.0, y_max, first=0.25)),
        ("jacobi", re, 0.0),
        ("legendre", 0.0, 2.0 * math.pi),
    ]
    if n == 4:
        axes.append(("legendre", 0.0, math.pi))
    values = node_values(F, packed=True)

    def integrand(y1, u, theta, *rest):
        rho = 0.5 * (1.0 + u)
        if n == 3:
            y = (y1, y1 * rho * np.cos(theta), y1 * rho * np.sin(theta))
            jac = y1 * y1 * rho
        else:
            phi = rest[0]
            sp = np.sin(phi)
            y = (
                y1,
                y1 * rho * sp * np.cos(theta),
                y1 * rho * sp * np.sin(theta),
                y1 * rho * np.cos(phi),
            )
            jac = y1**3 * rho * rho * sp
        pairing = sum(yc * zc for yc, zc in zip(y, zeta))
        defold = (1.0 - u) ** (-re) if re else 1.0
        return values(*y) * np.exp(1j * pairing) * jac * 0.5 * defold

    return integrate_region(
        integrand, axes, tol=tol, start_order=start_order, max_order=max_order
    )


def test_transform_chart_matches_two_branch_reference():
    # the fiber chart and the hyperspherical reference share no coordinate,
    # so at converged settings they agree within the reference's own error
    # estimate (relative, floored at scale 1 as `integrate_region` reports
    # it).  A lift takes its own folds, so its grid is passed as a plain
    # callable to keep it on the generic route.  At n = 4 F leans on y4 and
    # the components of zeta differ, so the comparison sees each fiber axis
    # with its own Jacobian power.
    grid = _generic(phi_cone_apply(JuhlParams(3, 3.0, 0), h_exp(3)))
    F4 = lambda y: q_form(y) * (1.0 + 0.5 * y[3] / y[0])
    z4 = tuple(1j * c for c in (2.0, 0.3, -0.2, 0.1))
    for F_fn, z, kw in (
        (grid, Z3, dict(rho_exponent=1.5, y_max=35.0, tol=1e-6)),
        (lambda y: math.exp(-2.0 * y[0]), Z3, dict(y_max=30.0, tol=1e-8)),
        (F4, z4, dict(rho_exponent=1.0, y_max=25.0, tol=2e-4, start_order=8, max_order=16)),
    ):
        ref = two_branch_transform(F_fn, z, len(z), **kw)
        got = cone_fourier_laplace(F_fn, z, len(z), **kw)
        assert abs(got - ref.value) <= ref.error * max(1.0, abs(ref.value)), (len(z), kw)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_lift_fiber_chart_matches_generic_chart(ell):
    # the lift's own folds and the generic rho_exponent folds on the same
    # chart: at n = 3 both converge far below tol, so they agree to rounding
    p = JuhlParams(3, 3.0, ell)
    lift = phi_cone_apply(p, h_exp_arrays(3 + ell))
    kw = dict(y_max=35.0, tol=1e-6)
    fiber = cone_fourier_laplace(lift, Z3, 3, **kw)
    generic = cone_fourier_laplace(_generic(lift), Z3, 3, rho_exponent=1.5, **kw)
    assert rel(fiber, generic) < 1e-12


def test_lift_fiber_chart_within_generic_error_estimate():
    # at n = 4 the generic folds' order-16 value is accurate to about its
    # difference from the order-8 value; the lift's own folds converge to 1e-6
    z4 = (0.1 + 3j, 0.2 - 0.5j, -0.1 + 0.2j, 0.3j)
    lift = phi_cone_apply(JuhlParams(4, 4.0, 0), lambda y: np.exp(-y[0]) * q_form(y) ** 2)
    fiber = cone_fourier_laplace(lift, z4, 4, y_max=12.0, tol=1e-6)
    v8, v16 = (
        cone_fourier_laplace(_generic(lift), z4, 4, rho_exponent=2.0, y_max=12.0, tol=1.0,
                             start_order=k // 2, max_order=k)
        for k in (8, 16)
    )
    assert rel(fiber, v16) < rel(v16, v8)


@pytest.mark.parametrize("n", [3, 4])
def test_lift_profile_evaluated_once_per_base_node(n):
    # the fiber axis is the fastest, so h sees each base node once per pass:
    # the panels of y1 times order^(n - 2) base points at orders 8 and 16
    points = []

    def h(y):
        points.append(y[0].size)
        return np.exp(-y[0])

    z = (2j, 0.3j, -0.2j, 0.1j)[:n]
    lift = phi_cone_apply(JuhlParams(n, n + 1.0, 1), h)
    cone_fourier_laplace(lift, z, n, y_max=12.0, tol=1.0, start_order=8, max_order=16)
    panels = len(geometric_panels(0.0, 12.0, first=0.25))
    assert sum(points) == sum(panels * k ** (n - 1) for k in (8, 16))


def test_lift_profile_per_point_matches_arrays():
    # a `math` h takes the per-point fallback of the lift's `_h_grid`
    p = JuhlParams(3, 3.0, 1)
    kw = dict(y_max=35.0, tol=1e-6)
    per_point = cone_fourier_laplace(phi_cone_apply(p, h_exp(4)), Z3, 3, **kw)
    on_arrays = cone_fourier_laplace(phi_cone_apply(p, h_exp_arrays(4)), Z3, 3, **kw)
    assert rel(per_point, on_arrays) < 1e-14


def test_lift_transform_guards():
    # the fiber rule's weight (1 - v^2)^(lam - n/2) needs lam > n/2 - 1
    for n, lam in ((3, 0.5), (4, 0.75)):
        lift = phi_cone_apply(JuhlParams(n, lam, 0), lambda y: 1.0)
        z = (2j, 0.3j, -0.2j, 0.1j)[:n]
        with pytest.raises(DomainError, match=f"lift's weight .* got lam = {lam}"):
            cone_fourier_laplace(lift, z, n)
    # a lift transforms only in its own dimension
    lift = phi_cone_apply(JuhlParams(3, 3.0, 0), h_exp(3))
    with pytest.raises(DomainError, match="3-dimensional cone has no transform at n = 4"):
        cone_fourier_laplace(lift, (2j, 0.3j, -0.2j, 0.1j), 4)
    # a lift's folds come from its own weight, so rho_exponent is refused
    # rather than ignored
    with pytest.raises(DomainError, match="got rho_exponent = 1.5"):
        cone_fourier_laplace(lift, Z3, 3, rho_exponent=1.5)


# per dimension: tolerance and order schedule of the Riesz-ratio check
RIESZ_SCHEDULES = {3: (2e-4, 8, 16), 4: (2e-4, 8, 16), 5: (1e-4, 4, 16), 6: (1e-4, 4, 8)}


@pytest.mark.parametrize("n", sorted(RIESZ_SCHEDULES))
def test_transform_riesz_ratio(n):
    # F = Q^(s - n/2) with s = 3: the transform scales as Q(Im zeta)^(-s);
    # F vanishes at the boundary as (1 - rho^2)^(s - n/2)
    expo = 3 - n / 2
    F_fn = lambda y: q_form(y) ** expo
    ya = (2.0, 0.3, -0.2, 0.1, 0.25, -0.15)[:n]
    yb = (3.0, -0.5, 0.2, 0.4, -0.3, 0.2)[:n]
    tol, start, stop = RIESZ_SCHEDULES[n]
    va, vb = (
        cone_fourier_laplace(
            F_fn, tuple(1j * c for c in y), n, rho_exponent=expo, y_max=25.0,
            tol=tol, start_order=start, max_order=stop,
        )
        for y in (ya, yb)
    )
    assert rel(va / vb, (q_form(ya) / q_form(yb)) ** -3) < 1e-8


def test_transform_guards():
    # the chart exists for every integer n >= 3
    with pytest.raises(DomainError):
        cone_fourier_laplace(lambda y: 1.0, (2j, 0.5j), 2)
    with pytest.raises(DomainError):
        cone_fourier_laplace(lambda y: 1.0, (2j, 0.3j, -0.2j, 0.1j), 4.0)
    with pytest.raises(DomainError):
        cone_fourier_laplace(lambda y: 1.0, (1.0, 2.0 + 1j, 0.0), 3)


def test_inverse_routes_cross_validate():
    # kernel route on closed-form transforms against the multiplication
    # route on the originals; equality encodes the full factorization
    lam = 3

    def g_closed(nu):
        const = math.gamma(nu) ** 2 * 2.0 ** (2 * nu - 1)

        def g(tau):
            shifted = (tau[0] + 1j) ** 2 - tau[1] ** 2
            return const * (-shifted) ** (-nu)

        return g

    f_kernel = invert_juhl(
        3, lam, {0: g_closed(3), 1: g_closed(4)}, method="holographic",
        radius=10.0, order=24,
    )
    f_mult = invert_juhl(
        3, float(lam), {0: h_exp(3), 1: h_exp(4)}, method="l2",
        y_max=35.0, tol=1e-6,
    )
    a = f_kernel(Z3)
    b = f_mult(Z3)
    assert rel(a, b) < 5e-2

    # dropping levels above L removes exactly the higher component
    f_trunc = invert_juhl(
        3, lam, {0: g_closed(3), 1: g_closed(4)}, L=0, method="holographic",
        radius=10.0, order=12,
    )
    f_single = invert_juhl(
        3, lam, {0: g_closed(3)}, method="holographic", radius=10.0, order=12
    )
    assert f_trunc(Z3) == f_single(Z3)


def _counted(F, calls):
    """F, with its calls on node arrays and on one point counted."""
    def f(y):
        calls["arrays" if isinstance(y[0], np.ndarray) else "points"] += 1
        return F(y)

    return f


def _refusing_arrays(F):
    """F as a callable written with `math` behaves: TypeError on arrays."""
    def f(y):
        if isinstance(y[0], np.ndarray):
            raise TypeError("one point at a time")
        return F(y)

    return f


def test_transforms_agree_on_arrays_and_per_point():
    # the same F through the array call and through the per-point fallback
    F = lambda y: np.exp(-y[0]) * q_form(y)
    g = lambda tau: ((tau[0] + 1j) ** 2 - tau[1] ** 2) ** -3.5
    z4 = (0.1 + 3j, 0.2 - 0.5j, -0.1 + 0.2j, 0.3j)
    runs = [
        (F, lambda F: cone_fourier_laplace(F, Z3, 3, rho_exponent=1.0, y_max=20.0,
                                           tol=1e-4, start_order=8, max_order=16)),
        (F, lambda F: cone_fourier_laplace(F, z4, 4, rho_exponent=1.0, y_max=12.0,
                                           tol=1e-2, start_order=4, max_order=8)),
        (g, lambda g: holographic_integral(JuhlParams(3, 3.0, 1), g, Z3, radius=10.0,
                                           order=12)),
    ]
    for f, run in runs:
        on_arrays, per_point = {"arrays": 0, "points": 0}, {"arrays": 0, "points": 0}
        a = run(_counted(f, on_arrays))
        b = run(_counted(_refusing_arrays(f), per_point))
        assert on_arrays["points"] == 0 and on_arrays["arrays"] > 0
        assert per_point["arrays"] == 1 and per_point["points"] > 0
        assert abs(a - b) <= 1e-12 * abs(b)

    # dropping levels above L still removes exactly the higher component
    # when the components run on arrays
    calls = {"arrays": 0, "points": 0}
    comps = {0: _counted(g, calls), 1: _counted(lambda tau: 2.0 * g(tau), calls)}
    trunc = invert_juhl(3, 3, comps, L=0, method="holographic", radius=10.0, order=12)
    single = invert_juhl(3, 3, {0: comps[0]}, method="holographic", radius=10.0, order=12)
    assert trunc(Z3) == single(Z3)
    assert calls["points"] == 0 and calls["arrays"] > 0


@pytest.mark.parametrize("L", [-1, True, 0.5, "2"])
def test_inverse_rejects_a_bad_truncation_level(L):
    for method in ("holographic", "l2"):
        for components in ({0: lambda t: 1.0}, {}):
            with pytest.raises(DomainError):
                invert_juhl(3, 3.0, components, L=L, method=method)


@pytest.mark.parametrize("keys", [(0, "a"), (1.0,), (True,), (-1,)],
                         ids=["mixed", "float", "bool", "negative"])
@pytest.mark.parametrize("method", ["holographic", "l2"])
def test_inverse_rejects_a_bad_level_key(keys, method):
    # the level rule of every inverse series: a mixed key set used to raise
    # a bare TypeError from sorted, and 1.0 and True passed as levels
    with pytest.raises(DomainError, match="ell must be a nonnegative integer"):
        invert_juhl(3, 3.0, dict.fromkeys(keys, lambda t: 1.0), method=method)


def test_inverse_empty_and_errors():
    assert invert_juhl(3, 3, {}, method="holographic")(Z3) == 0j
    assert invert_juhl(4, 4.0, {}, method="l2")((0.1 + 2j, 1j * 0.3, -0.2j, 0.1j)) == 0j
    with pytest.raises(DomainError):
        invert_juhl(4, 4.0, {0: lambda t: 1.0}, method="holographic")
    with pytest.raises(DomainError):
        invert_juhl(3, 3.0, {-1: lambda t: 1.0}, method="holographic")
    with pytest.raises(DomainError):
        invert_juhl(3, 3.0, {0: lambda t: 1.0}, method="series")
    # the method is named, never picked from n: it decides what a component is
    with pytest.raises(TypeError):
        invert_juhl(3, 3.0, {0: lambda t: 1.0})
    with pytest.raises(TypeError):
        invert_juhl(3, 3.0, {0: lambda t: 1.0}, None, "holographic")


# ---------------------------------------------------------------------------
# Plancherel on the 3-cone


def _norm_sq_slanted(F_fn, lam, tol=1e-9):
    """Squared cone norm of F against density(lam), n = 3, by light-cone
    coordinates with every weight folded into the rules."""
    gamma = lam - 1.0
    a_w = lam - 1.5

    def g(s, t, v):
        yp = (0.5 * (s + t), 0.5 * (s - t))
        y = yp + (-math.sqrt(s * t) * v,)
        val = F_fn(y)
        unfold = s ** (-gamma) * t ** (-gamma) * math.exp(s + t)
        return (
            abs(val) ** 2
            * (1.0 - v * v) ** (3.0 - 2.0 * lam)
            * (s * t) ** (2.0 - lam)
            * 0.5
            * unfold
        )

    res = integrate_region(
        pointwise(g),
        [("laguerre", gamma, 1.0), ("laguerre", gamma, 1.0), ("jacobi", a_w, a_w)],
        tol=tol,
        max_order=64,
    )
    return res.value


def test_single_lift_norm_ratio():
    lam = 3.0
    p = JuhlParams(3, lam, 1)
    lift = phi_cone_apply(p, h_exp(float(p.nu)))
    got = _norm_sq_slanted(lift, lam)
    want = cone_constants(p)["c_ell"] * math.gamma(float(p.nu)) ** 2 / 2.0
    assert rel(got, want) < 1e-7


def test_plancherel_sum_three_levels():
    lam = 3.0
    weights = {0: 1.0, 1: 0.7, 2: 0.5j}
    lifts = {}
    expect = 0.0
    for ell, a in weights.items():
        p = JuhlParams(3, lam, ell)
        lifts[ell] = phi_cone_apply(p, h_exp(float(p.nu)))
        expect += (
            abs(a) ** 2
            * cone_constants(p)["c_ell"]
            * math.gamma(float(p.nu)) ** 2
            / 2.0
        )

    def F_fn(y):
        return sum(a * lifts[ell](y) for ell, a in weights.items())

    got = _norm_sq_slanted(F_fn, lam)
    assert rel(got, expect) < 1e-6


# juhl_sbo_apply at n = 3, ell = 2 on Q^(-lam), recorded for lam = 3.3
# (index 0) and 2.1+0.3j (index 1); every float of the text is pinned
JUHL_TEXT = {
    ("coefficients", 0): [
        '(sum 2',
        '  (term 130.54799999999997 (mono 0 0) (pow (base ((0 2) -1) ((2 0) 1)) -4.3))',
        '  (term 130.54799999999997 (mono 0 2) (pow (base ((0 2) -1) ((2 0) 1)) -5.3))',
        '  (term -130.54799999999997 (mono 2 0) (pow (base ((0 2) -1) ((2 0) 1)) -5.3))',
        ')',
    ],
    ("inflated", 0): [
        '(sum 2',
        '  (term 130.54799999999997 (mono 0 0) (pow (base ((0 2) -1) ((2 0) 1)) -4.3))',
        '  (term 130.54799999999997 (mono 0 2) (pow (base ((0 2) -1) ((2 0) 1)) -5.3))',
        '  (term -130.54799999999997 (mono 2 0) (pow (base ((0 2) -1) ((2 0) 1)) -5.3))',
        ')',
    ],
    ("coefficients", 1): [
        '(sum 2',
        '  (term (c 26.37600000000001 14.568000000000001) (mono 0 0) (pow (base ((0 2) -1) ((2 0) 1)) (c -3.1 -0.3)))',
        '  (term (c 26.376000000000005 14.568000000000001) (mono 0 2) (pow (base ((0 2) -1) ((2 0) 1)) (c -4.1 -0.3)))',
        '  (term (c -26.376000000000005 -14.568000000000001) (mono 2 0) (pow (base ((0 2) -1) ((2 0) 1)) (c -4.1 -0.3)))',
        ')',
    ],
    ("inflated", 1): [
        '(sum 2',
        '  (term (c 26.37600000000001 14.568000000000001) (mono 0 0) (pow (base ((0 2) -1) ((2 0) 1)) (c -3.1 -0.3)))',
        '  (term (c 26.376000000000005 14.568000000000001) (mono 0 2) (pow (base ((0 2) -1) ((2 0) 1)) (c -4.1 -0.3)))',
        '  (term (c -26.376000000000005 -14.568000000000001) (mono 2 0) (pow (base ((0 2) -1) ((2 0) 1)) (c -4.1 -0.3)))',
        ')',
    ],
}


@pytest.mark.parametrize("key", list(JUHL_TEXT), ids=str)
def test_juhl_sbo_apply_text_pinned(key):
    route, i = key
    lam = (3.3, 2.1 + 0.3j)[i]
    q = base_poly(3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1})
    f = holo_sum(3, [term(3, 1, None, [(q, -lam)])])
    got = juhl_sbo_apply(JuhlParams(3, lam, 2), f, route)
    assert to_text(got).split("\n") == JUHL_TEXT[key]


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_adjoint_constant_is_finite_at_a_transform_constant_pole(ell):
    # at n = 4, lam = 3 the Fourier-Laplace constant b_n hits Gamma(0), but
    # the adjoint constant is a Pochhammer product with the factor (0)_(n+ell-1)
    p = JuhlParams(4, 3.0, ell)
    with pytest.raises(PoleError):
        cone_constants(p)
    assert adjoint_constant(p) == 0
    want = (-1) ** ell * kernel_normalization(4, 3.0).conjugate() * complex(q_constant(4, ell, 3.0))
    assert want == 0
    p = JuhlParams(4, 3.5, ell)
    assert adjoint_constant(p) == cone_constants(p)["adjoint_const"]


def test_l2_assembly_builds_at_a_transform_constant_pole():
    # the l2 route weighs each level by i^ell / c_ell alone, so the Gamma(0)
    # that b_n meets at n = 4, lam = 3 must not stop the assembly
    p = JuhlParams(4, 3.0, 0)
    with pytest.raises(PoleError):
        cone_constants(p)
    assert cone_c_ell(p) > 0
    assembled = invert_juhl(4, 3.0, {0: lambda y: math.exp(-y[0])}, method="l2")
    assert callable(assembled)
