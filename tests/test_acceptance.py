"""Acceptance gate: ten suite-level checks, one test and one printed line per
criterion, each with its own tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; under plain `pytest -v` the test names carry the same pass/fail
information.
"""

import math
import time
from fractions import Fraction as F

from holobreak.juhl import (
    JuhlParams,
    bernstein_sato_verify,
    cone_constants,
    phi_cone_apply,
    juhl_hat_apply,
    phi_isometry_ratio,
    q_constant,
)
from holobreak.l2_model import (
    i_power,
    invert_rchat,
    l2fn,
    phi_apply,
    rchat_apply,
    weighted_norm_sq,
    halfplane_norm_sq,
)
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
    rc_apply,
    zero_classification,
)
from holobreak.special_poly import (
    gegenbauer_norm_sq,
    gegenbauer_poly,
    jacobi_norm_sq,
    jacobi_poly,
)
from holobreak.term_algebra import (
    base_poly,
    combine,
    default_tube_points,
    equal,
    evaluate,
    holo_sum,
    monomial,
    qqi,
    scale,
    sl2_action,
    term,
)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def var_plus_i(arity, var):
    entries = {tuple(1 if k == var else 0 for k in range(arity)): 1}
    entries[(0,) * arity] = qqi(0, 1)
    return base_poly(arity, entries)


def pair_diff():
    return base_poly(2, {(1, 0): 1, (0, 1): -1})


def zi_power(coeff, exponent):
    return holo_sum(1, [term(1, coeff, (0,), [(var_plus_i(1, 0), exponent)])])


def finish(num, name, t0, budget, note=""):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s{note})")
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


# ---------------------------------------------------------------------------


def test_criterion_01_orthogonal_norms():
    t0 = time.perf_counter()
    grid = (0.0, 0.5, 1.0, 2.5)
    rule_cache = {}

    def quad(a, b, poly):
        rule = rule_cache.setdefault((a, b), build_rule(("jacobi", a, b), 32))
        return sum(w * float(poly(x)) ** 2 for x, w in zip(rule.nodes, rule.weights))

    for a in grid:
        for b in grid:
            for ell in range(11):
                got = quad(a, b, jacobi_poly(ell, a, b))
                want = complex(jacobi_norm_sq(ell, a, b)).real
                assert rel(got, want) < 1e-10, ("jacobi", a, b, ell)
    for a in grid:
        for ell in range(11):
            got = quad(a - 0.5, a - 0.5, gegenbauer_poly(ell, a))
            want = complex(gegenbauer_norm_sq(ell, a)).real
            assert rel(got, want) < 1e-10, ("gegenbauer", a, ell)
    finish(1, "orthogonal polynomial norms", t0, 5.0)


def _twelve_term_library():
    return [
        monomial(2, (3, 0)),
        monomial(2, (2, 1), F(1, 2)),
        monomial(2, (0, 5), F(-2, 7)),
        holo_sum(2, [term(2, F(3))]),
        ktype_generator(RCParams(F(2), F(2), 2)),
        ktype_generator(RCParams(F(3, 2), F(5, 2), 1)),
        holo_sum(2, [term(2, F(2), (1, 0), [(var_plus_i(2, 0), F(-2))])]),
        holo_sum(2, [term(2, F(1, 3), (0, 2), [(var_plus_i(2, 1), F(-3))])]),
        holo_sum(2, [term(2, 1, (0, 0), [(pair_diff(), F(3))])]),
        holo_sum(2, [term(2, qqi(1, 1), (1, 1), [(var_plus_i(2, 0), F(-5, 2))])]),
        holo_sum(
            2,
            [term(2, 1, (0, 0),
                  [(var_plus_i(2, 0), F(-7, 3)), (var_plus_i(2, 1), F(-5, 2))])],
        ),
        holo_sum(2, [term(2, F(2), (1, 0), [(var_plus_i(2, 0), F(-2))]), term(2, 1, (1, 1))]),
    ]


def test_criterion_02_route_equivalence_and_intertwining():
    t0 = time.perf_counter()
    library = _twelve_term_library()
    assert len(library) == 12
    for l1, l2 in ((F(2), F(2)), (F(3, 2), F(5, 2)), (F(-1, 2), F(3))):
        for ell in range(7):
            p = RCParams(l1, l2, ell)
            for f in library:
                ref = rc_apply(p, f, RC_ROUTES[0])
                for route in RC_ROUTES[1:]:
                    assert equal(ref, rc_apply(p, f, route)), (p, route)
    for p in (RCParams(F(2), F(2), 1), RCParams(F(3, 2), F(5, 2), 2),
              RCParams(F(2), F(3), 4)):
        for f in library[:6]:
            for gen in "HXY":
                lhs = rc_apply(p, sl2_action(gen, (p.lam1, p.lam2), f))
                rhs = sl2_action(gen, (p.lam3,), rc_apply(p, f))
                assert equal(lhs, rhs), (p, gen)
    finish(2, "route equivalence and intertwining", t0, 30.0)


def test_criterion_03_casimir_eigen_identity():
    t0 = time.perf_counter()
    pairs = ((F(2), F(2)), (F(5, 2), F(3)), (F(7, 2), F(2)),
             (F(3), F(4)), (F(5, 2), F(5, 2)))
    for l1, l2 in pairs:
        for ell in range(7):
            g = ktype_generator(RCParams(l1, l2, ell))
            shift = ell * (l1 + l2 + ell - 1)
            assert equal(casimir_P(l1, l2, g), scale(g, -shift)), (l1, l2, ell)
    finish(3, "Casimir eigen identity", t0, 10.0)


def test_criterion_04_composition_identity():
    t0 = time.perf_counter()
    # exact leg at integer weights, where the beta prefactor is a ratio of
    # factorials and the whole chain stays rational
    for l1, l2 in ((F(2), F(2)), (F(2), F(3)), (F(4), F(2))):
        for ell in range(5):
            p = RCParams(l1, l2, ell)
            b_exact = F(
                math.factorial(int(l1) + ell - 1) * math.factorial(int(l2) + ell - 1),
                math.factorial(int(l1) + int(l2) + 2 * ell - 1),
            )
            psi_exact = scale(ktype_generator(p), b_exact / math.factorial(ell))
            got = rc_apply(p, psi_exact)
            want = zi_power(c_ell(l1, l2, ell), -F(p.lam3))
            assert equal(got, want), p
    # quadrature leg at 20 tube points
    points = default_tube_points(2, 20)
    params = [RCParams(F(2), F(2), ell) for ell in range(5)]
    params += [RCParams(F(3, 2), F(5, 2), 2), RCParams(F(4), F(2), 3)]
    for p in params:
        closed = psi_ktype_closed_form(p)
        lam3 = complex(float(p.lam3))

        def gen(z, s=lam3):
            return (z + 1j) ** (-s)

        for z1, z2 in points:
            got = psi_quadrature(p, gen, z1, z2)
            want = evaluate(closed, (z1, z2))
            assert rel(got, want) < 1e-9, (p, z1, z2)
    finish(4, "composition identity", t0, 20.0)


def test_criterion_05_bernstein_sato():
    t0 = time.perf_counter()
    grids = ((3, (F(2), F(7, 2), F(4))),
             (4, (F(5, 2), F(3), F(9, 2))),
             (5, (F(3), F(7, 2), F(5))))
    for n, lams in grids:
        for lam in lams:
            for ell in range(7):
                q0, higher = bernstein_sato_verify(JuhlParams(n, lam, ell))
                assert not higher, (n, lam, ell)
                assert not q0 - q_constant(n, ell, lam), (n, lam, ell)
    finish(5, "Bernstein-Sato constants", t0, 60.0)


def test_criterion_06_l2_plancherel_for_lift():
    t0 = time.perf_counter()
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
                assert rel(lifted, c * hn) < 1e-7, (lam1, lam2, ell)
    # mixed components: norm of the sum against the weighted component sum
    lam1, lam2 = 2, 2.5
    lifts = []
    total = 0.0
    for ell in range(4):
        p = RCParams(lam1, lam2, ell)
        lam3 = float(p.lam3)
        h = l2fn(lambda z, s=lam3: z ** (s - 1) * math.exp(-z), lam3)
        lifts.append((i_power(ell), phi_apply(p, h)))
        total += float(c_ell(lam1, lam2, ell)) * weighted_norm_sq(h)
    mixed = l2fn(lambda x, y: sum(w * g(x, y) for w, g in lifts), lam1, lam2)
    assert rel(weighted_norm_sq(mixed), total) < 1e-6
    finish(6, "half-line Plancherel for the lift", t0, 60.0)


def test_criterion_07_cone_isometry():
    t0 = time.perf_counter()
    grids = ((3, (3.0, 3.5), (1.5, 0.4)), (4, (4.0, 4.5), (1.5, 0.4, 0.2)))
    for n, lams, probe in grids:
        for lam in lams:
            for ell in range(5):
                p = JuhlParams(n, lam, ell)
                ratio = phi_isometry_ratio(p, lambda y: math.exp(-y[0]), probe)
                assert rel(ratio, cone_constants(p)["c_ell"]) < 1e-7, (n, lam, ell)
    finish(7, "cone model isometry", t0, 30.0)


def test_criterion_08_fourier_laplace_isometry():
    t0 = time.perf_counter()
    for lam in (3.0, 4.0):
        gamma = math.gamma(lam)

        def G(zeta, g=gamma, s=lam):
            return g * (1 - 1j * zeta) ** (-s)

        den = gamma / 2**lam
        want = b_const(lam).real
        assert rel(halfplane_norm_sq(G, lam) / den, want) < 1e-12, lam
    finish(8, "Fourier-Laplace isometry constant", t0, 120.0)


def test_criterion_09_inversion_round_trips():
    t0 = time.perf_counter()
    # holomorphic pair, two genuine components
    lam1 = lam2 = F(2)
    f = combine(2, [(1, psi_ktype_closed_form(RCParams(lam1, lam2, k))) for k in (0, 1)])
    comps = {}
    for ell in (0, 1):
        g = rc_apply(RCParams(lam1, lam2, ell), f)
        comps[ell] = lambda z, g=g: evaluate(g, (z,))
    rec = invert_rc(lam1, lam2, comps)
    for z1, z2 in default_tube_points(2)[:6]:
        assert rel(rec(z1, z2), evaluate(f, (z1, z2))) < 1e-8

    # half-line pair, single component through the transform and back
    p = RCParams(2, 2.5, 2)
    lam3 = float(p.lam3)
    h = l2fn(lambda z: z ** (lam3 - 1) * math.exp(-z), lam3)
    lifted = phi_apply(p, h)
    G = l2fn(lambda z: rchat_apply(p, lifted, z, method="jacobi"), lam3)
    rebuilt = invert_rchat(2, 2.5, {2: G})
    for x, y in ((0.5, 0.5), (1.0, 2.0), (3.2, 0.7), (0.1, 4.0)):
        assert rel(rebuilt(x, y), lifted(x, y)) < 1e-8

    # cone pair, fiber transform inverting the fiber lift
    for n, lam, ells, probes in (
        (3, 2.5, (0, 1, 2, 3), ((1.5, 0.4), (2.2, -0.8))),
        (4, 4.0, (0, 2), ((1.5, 0.4, 0.2),)),
    ):
        h_fn = lambda yp: 1.0 + 0.5 * yp[1] - 0.25 * yp[0]
        for ell in ells:
            p = JuhlParams(n, lam, ell)
            lift = phi_cone_apply(p, h_fn)
            c = cone_constants(p)["c_ell"]
            for yp in probes:
                got = juhl_hat_apply(p, lift, yp, method="jacobi")
                back = got / (i_power(-ell) * c)
                assert rel(back, h_fn(yp)) < 1e-8, (n, lam, ell, yp)

    # multi-component truncation: residual decreases monotonically to L = 8
    prod = holo_sum(
        2,
        [term(2, 1, (0, 0),
              [(var_plus_i(2, 0), F(-7, 3)), (var_plus_i(2, 1), F(-5, 2))])],
    )
    comps = {}
    for ell in range(9):
        g = rc_apply(RCParams(lam1, lam2, ell), prod)
        comps[ell] = lambda z, g=g: evaluate(g, (z,))
    points = default_tube_points(2)[:3]
    values = [evaluate(prod, pt) for pt in points]
    previous = None
    for L in range(9):
        rec = invert_rc(lam1, lam2, comps, L=L)
        residual = max(
            abs(rec(z1, z2) - v) / abs(v) for (z1, z2), v in zip(points, values)
        )
        if previous is not None:
            assert residual < previous, (L, residual, previous)
        previous = residual
    assert previous < 1e-7
    finish(9, "inversion round trips", t0, 120.0)


def test_criterion_10_zero_classification():
    t0 = time.perf_counter()
    collisions = 0
    decided = 0
    for l1 in range(-6, 7):
        for l2 in range(-6, 7):
            for ell in range(5):
                lam3 = l1 + l2 + 2 * ell
                kind, _ = c_ell_status(F(l1), F(l2), ell)
                if kind in ("pole", "indeterminate"):
                    collisions += 1
                    continue
                decided += 1
                assert zero_classification(l1, l2, lam3) == (kind == "zero"), (
                    l1, l2, ell, kind,
                )
    assert decided > 0
    finish(10, "zero classification", t0, 5.0,
           note=f", {collisions} pole collisions reported, {decided} decided")
    assert decided + collisions == 13 * 13 * 5
