"""Gaussian quadrature rules and adaptive tensor integration.

Rules are built by the eigenvalue route: the three-term recurrence of the
orthogonal family is symmetrized into a Jacobi matrix, whose eigenvalues are
the nodes and whose first eigenvector components square to the weights.
Three weight families cover every integral in the package:

- ``jacobi``:   (1-x)^alpha (1+x)^beta on (-1, 1),  alpha, beta > -1
- ``laguerre``: x^gamma e^(-s x) on (0, inf),        gamma > -1, s > 0
- ``legendre``: plain dx on a finite interval (a, b)

An n-point rule integrates polynomials through degree 2n-1; the test suite
pins that at 1e-13 relative.

Every sum against rule nodes goes through `integrate`, which walks the
tensor product of one or more rules.  The integrand contract is scalar: f
receives one Python float per axis and returns a real or complex number.
The adaptive wrappers `integrate_adaptive` and `integrate_region` share one
order-doubling loop; they stop when two successive estimates agree, and
report failure honestly instead of raising.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special_poly import DomainError, beta as beta_fn


@dataclass(frozen=True)
class QuadratureRule:
    family: str
    params: tuple
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


def _from_recurrence(diag, offdiag_sq, mu0) -> tuple[np.ndarray, np.ndarray]:
    n = len(diag)
    m = np.diag(np.asarray(diag, dtype=float))
    if n > 1:
        off = np.sqrt(np.asarray(offdiag_sq, dtype=float))
        m += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(m)
    return vals, mu0 * vecs[0] ** 2


def _jacobi_rule(n: int, alpha: float, beta: float) -> QuadratureRule:
    if alpha <= -1 or beta <= -1:
        raise DomainError("jacobi rule needs alpha, beta > -1")
    s = alpha + beta
    diag = []
    for k in range(n):
        if k == 0:
            diag.append((beta - alpha) / (s + 2))
        else:
            denom = (2 * k + s) * (2 * k + s + 2)
            diag.append((beta**2 - alpha**2) / denom)
    off = []
    for k in range(1, n):
        if k == 1:
            off.append(4 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s)))
        else:
            num = 4 * k * (k + alpha) * (k + beta) * (k + s)
            den = (2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)
            off.append(num / den)
    mu0 = 2.0 ** (s + 1) * float(beta_fn(float(alpha) + 1, float(beta) + 1))
    nodes, weights = _from_recurrence(diag, off, mu0)
    return QuadratureRule("jacobi", (float(alpha), float(beta)), nodes, weights)


def _laguerre_rule(n: int, gamma: float, scale: float) -> QuadratureRule:
    if gamma <= -1:
        raise DomainError("laguerre rule needs gamma > -1")
    if scale <= 0:
        raise DomainError("laguerre rule needs scale > 0")
    diag = [2 * k + gamma + 1 for k in range(n)]
    off = [k * (k + gamma) for k in range(1, n)]
    mu0 = math.gamma(gamma + 1.0)
    nodes, weights = _from_recurrence(diag, off, mu0)
    # substitute u = scale * x in the unit-scale rule
    return QuadratureRule(
        "laguerre",
        (float(gamma), float(scale)),
        nodes / scale,
        weights * scale ** (-gamma - 1.0),
    )


def _legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    if not b > a:
        raise DomainError("legendre rule needs b > a")
    base = _jacobi_rule(n, 0.0, 0.0)
    half = 0.5 * (b - a)
    return QuadratureRule(
        "legendre",
        (float(a), float(b)),
        a + half * (base.nodes + 1.0),
        half * base.weights,
    )


def build_rule(family: str, order: int, **params) -> QuadratureRule:
    """Build an n-point Gaussian rule for one of the three weight families.

    jacobi:   alpha=, beta=
    laguerre: gamma=, scale=1.0
    legendre: a=, b=
    """
    if order < 1:
        raise DomainError("rule order must be >= 1")
    if family == "jacobi":
        return _jacobi_rule(order, params["alpha"], params["beta"])
    if family == "laguerre":
        return _laguerre_rule(order, params["gamma"], params.get("scale", 1.0))
    if family == "legendre":
        return _legendre_rule(order, params["a"], params["b"])
    raise DomainError(f"unknown rule family {family!r}")


def integrate(f: Callable, *rules: QuadratureRule):
    """Sum f against the tensor product of one or more rules.

    f receives one Python float per rule, in rule order.  Points are visited
    in C order (last rule fastest) and each point's weight is the product of
    its axis weights taken from the left, so the sum is reproducible bit for
    bit.
    """
    if not rules:
        raise DomainError("integrate needs at least one rule")
    nodes = [r.nodes.tolist() for r in rules]
    weights = map(math.prod, itertools.product(*[r.weights.tolist() for r in rules]))
    total = 0.0
    for w, xs in zip(weights, itertools.product(*nodes)):
        total = total + w * f(*xs)
    return total


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    converged: bool
    evaluations: int

    def __iter__(self):
        # allow value, err = result
        yield self.value
        yield self.error


def _rel_delta(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _order_doubling(
    f: Callable, rules_at: Callable, tol: float, start_order: int, max_order: int
) -> IntegralResult:
    """Integrate f on the rules rules_at(order) returns, doubling order from
    start_order up to max_order; the stopping rule is integrate_adaptive's."""
    order = start_order
    prev = None
    err = float("inf")
    evals = 0
    while order <= max_order:
        rules = rules_at(order)
        cur = integrate(f, *rules)
        evals += math.prod(r.order for r in rules)
        if prev is not None:
            err = _rel_delta(cur, prev)
            if err < tol:
                return IntegralResult(cur, err, True, evals)
        prev = cur
        order *= 2
    return IntegralResult(prev, err, False, evals)


def integrate_adaptive(
    f: Callable,
    family: str,
    tol: float = 1e-10,
    start_order: int = 16,
    max_order: int = 512,
    **params,
) -> IntegralResult:
    """Order-doubling integration against one weight family.

    f receives one Python float.  Stops when two successive doublings agree
    to tol (relative, floored at scale 1).  Exhausting max_order returns the
    last value with converged=False rather than raising.
    """
    return _order_doubling(
        f, lambda order: [build_rule(family, order, **params)], tol, start_order, max_order
    )


def geometric_panels(inner: float, outer: float, first: float = 1.0) -> list:
    """Split (inner, outer) into geometrically growing panels.

    Used for truncated half-line integrals whose mass sits near the inner
    edge: panel widths double, so a fixed-order rule per panel resolves both
    the peak and the tail.
    """
    if not outer > inner:
        raise DomainError("geometric_panels needs outer > inner")
    breaks = [inner]
    width = first
    while breaks[-1] + width < outer:
        breaks.append(breaks[-1] + width)
        width *= 2
    breaks.append(outer)
    return [(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]


def _axis_rule(spec, order: int) -> QuadratureRule:
    kind = spec[0]
    if kind == "legendre":
        return build_rule("legendre", order, a=spec[1], b=spec[2])
    if kind == "jacobi":
        return build_rule("jacobi", order, alpha=spec[1], beta=spec[2])
    if kind == "laguerre":
        scale = spec[2] if len(spec) > 2 else 1.0
        return build_rule("laguerre", order, gamma=spec[1], scale=scale)
    if kind == "panels":
        panels = [build_rule("legendre", order, a=a, b=b) for a, b in spec[1]]
        return QuadratureRule(
            "panels",
            tuple(spec[1]),
            np.concatenate([r.nodes for r in panels]),
            np.concatenate([r.weights for r in panels]),
        )
    raise DomainError(f"unknown axis spec {spec!r}")


def integrate_region(
    f: Callable,
    axes: Sequence,
    tol: float = 1e-8,
    start_order: int = 8,
    max_order: int = 64,
) -> IntegralResult:
    """Tensor-product integration over up to four axes with order doubling.

    Each axis spec is ("legendre", a, b), ("jacobi", alpha, beta),
    ("laguerre", gamma[, scale]), or ("panels", [(a, b), ...]); f receives
    one Python float per axis, in axis order.  Truncation of infinite
    regions is the caller's job (the conventional default truncation radius
    is 1e3).
    """
    if not 1 <= len(axes) <= 4:
        raise DomainError("integrate_region supports 1 to 4 axes")
    return _order_doubling(
        f, lambda order: [_axis_rule(spec, order) for spec in axes], tol, start_order, max_order
    )
