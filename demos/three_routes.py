#!/usr/bin/env python3
"""Walk one function through the bidifferential pairing three ways.

The pairing has three routes that must agree term for term, each building
the same operator sum_{i+j=ell} c_ij d1^i d2^j before restricting to the
diagonal: ``coefficients`` writes the two-index coefficient sum c_ij
directly, while ``inflated`` and ``variant`` read c_ij off the two
bivariate Jacobi forms, ``jacobi_inflated`` (the homogeneous inflation
(-1)^ell (x+y)^ell P((y-x)/(x+y))) and ``jacobi_variant`` (the
homogenization y^ell P(1 + 2x/y), at its own Jacobi parameters).  This
script runs all three on a small rational example, checks exact agreement,
then shows the two identities that pin the normalization down: the Casimir
eigenvalue on the level generator and the composition constant.
"""

from fractions import Fraction as F

from holobreak.rc_transform import (
    RC_ROUTES,
    RCParams,
    c_ell,
    casimir_P,
    ktype_generator,
    rc_apply,
)
from holobreak.term_algebra import equal, monomial, scale, to_text


def main() -> None:
    p = RCParams(F(2), F(3), 2)
    f = monomial(2, (2, 1), F(1, 2))
    print(f"pairing at weights ({p.lam1}, {p.lam2}), level {p.ell}")
    print("input:")
    print(to_text(f))

    results = {route: rc_apply(p, f, route) for route in RC_ROUTES}
    first = results[RC_ROUTES[0]]
    for route in RC_ROUTES:
        tag = "agrees" if equal(first, results[route]) else "DISAGREES"
        print(f"  route {route!r}: {tag}")
    print("output:")
    print(to_text(first))

    g = ktype_generator(p)
    shift = p.ell * (p.lam1 + p.lam2 + p.ell - 1)
    ok = equal(casimir_P(p.lam1, p.lam2, g), scale(g, -shift))
    print(f"\nCasimir eigenvalue on the level-{p.ell} generator: "
          f"-{shift} ({'exact' if ok else 'FAILED'})")

    print("\ncomposition constants c_ell at these weights:")
    for ell in range(5):
        print(f"  ell={ell}: {c_ell(p.lam1, p.lam2, ell)}")


if __name__ == "__main__":
    main()
