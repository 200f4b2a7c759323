"""Gaussian and periodic quadrature rules and adaptive tensor integration.

Gaussian rules are built by the eigenvalue route: the three-term recurrence
of the orthogonal family is symmetrized into a Jacobi matrix, whose
eigenvalues are the nodes and whose first eigenvector components square to
the weights.  The periodic rule needs no eigen step.

Every rule is named by an axis spec, and `build_rule(spec, order)` is the
one constructor:

- ``("jacobi", alpha, beta)``:       (1-x)^alpha (1+x)^beta on (-1, 1),
  alpha, beta > -1
- ``("jacobi", alpha, beta, a, b)``: (b-x)^alpha (x-a)^beta on (a, b)
- ``("legendre", a, b)``:            plain dx on a finite interval (a, b)
- ``("laguerre", gamma, scale)``:    x^gamma e^(-scale x) on (0, inf),
  gamma > -1, scale > 0
- ``("panels", [(a, b), ...])``:     one Legendre rule per panel, all of
  them moved from one base rule
- ``("periodic",)``:                 plain dtheta on [0, 2 pi), the n-point
  trapezoid rule: nodes 2 pi (j + 1/2)/n, weights 2 pi/n; no node sits
  at 0

A rule on an interval is the rule on (-1, 1) moved by the affine map
x = a + (b-a)(1+u)/2, which scales the weights by ((b-a)/2)^(alpha+beta+1).
An n-point Gaussian rule integrates polynomials through degree 2n-1
against its weight, and the n-point periodic rule trigonometric
polynomials of degree below n; the test suite pins both at 1e-13.

Each distinct Gaussian rule is built once per process: the eigenvalue step
is kept in an LRU cache of 256 entries keyed by order, weight parameters
and their types (a Fraction parameter rounds differently from the equal
float), and only the cheap interval and panel moves, and the periodic
rule's layout, are redone per call.  Rule arrays are read-only, so a
shared rule cannot be changed in place.  `build_rule`
checks that the order is an int >= 1 and every parameter finite before the
lookup, and raises DomainError for a weight mass that overflows.

Every sum against rule nodes goes through `integrate`, which walks the
tensor product of one or more rules.  The integrand contract is an array
one: f receives one 1-D node array per axis, together holding one chunk of
the tensor grid in C order (last axis fastest), and returns that chunk's
values as an array of the same length.  `integrate` walks the grid in
chunks of at most `CHUNK` points, so memory stays bounded however large
the grid.  The trailing axes whose grid fits in one chunk form a block,
whose node and weight patterns are laid out once per call for as many
block rows as a chunk holds; each chunk is then a run of consecutive
leading multi-indices times the whole block, so only those few leading
indices are unravelled per chunk.  When the last axis alone is longer
than `CHUNK`, the block is empty and the same loop takes `CHUNK` leading
points at a time.  A one-axis grid that fits in a chunk gets the rule
arrays as they are.  The node arrays f receives are read-only, so an
integrand cannot change a pattern that later chunks share.  Each point's
weight is the product of its axis weights taken from the left, and the
sum is one sequential left-to-right running sum whose total is carried
across chunks, so a result equals the plain nested-loop sum bit for bit
wherever the chunk boundaries fall.  A non-finite pass total raises
DomainError.

Every function a transform is handed (a profile, a component, a lift, a
test integrand) reaches an integrand through `node_values`, the one
adapter.  A lift is an `ArrayFormula`, whose own `grid` it hands over.  A
user's function it tries on the chunk's whole node arrays first and keeps
the result only when the call raised nothing, warned nothing, and returned
a finite float or complex array of the chunk's shape; otherwise it calls
the function once per point, with one Python scalar per axis, and keeps
doing so.  A function that runs on arrays without error must give the
same values there as point by point; one that does not, such as a
`math.exp` call or an `if` on its argument, is evaluated point by point
with its own errors and values.

`integrate_region` holds the one order-doubling loop over a list of specs,
and `integrate_adaptive` is its one-axis case.  Their rule is "converges or
raises": they return once two successive passes agree to tol, and raise
DomainError ("did not converge") when the schedule ends without such a pair,
so no caller checks convergence itself.
Two other callers of `integrate` run one order: `verify ortho-poly`, whose
ell_max + 1 nodes are exact for its squared polynomials of degree <= 2 ell_max,
and the smoke test `juhl.holographic_integral`, whose error comes from its
truncation radius and whose guessed order the benchmark pins.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special_poly import DomainError, beta as beta_fn


@dataclass(frozen=True)
class QuadratureRule:
    spec: tuple
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


def _finished(nodes: np.ndarray, weights: np.ndarray, what) -> tuple[np.ndarray, np.ndarray]:
    """The rule's arrays made read-only, once its weight mass is checked to
    be a positive finite float."""
    mass = weights.sum()
    if not 0.0 < mass < math.inf:
        raise DomainError(f"weight mass of {what} is not a positive finite float: {mass}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=256, typed=True)
def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
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
    return _finished(*_from_recurrence(diag, off, mu0), ("jacobi", alpha, beta))


@functools.lru_cache(maxsize=256, typed=True)
def _laguerre_rule(n: int, gamma: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    if gamma <= -1:
        raise DomainError("laguerre rule needs gamma > -1")
    if scale <= 0:
        raise DomainError("laguerre rule needs scale > 0")
    diag = [2 * k + gamma + 1 for k in range(n)]
    off = [k * (k + gamma) for k in range(1, n)]
    mu0 = math.gamma(gamma + 1.0)
    nodes, weights = _from_recurrence(diag, off, mu0)
    # substitute u = scale * x in the unit-scale rule
    return _finished(nodes / scale, weights * scale ** (-gamma - 1.0), ("laguerre", gamma, scale))


def _on_interval(base, alpha: float, beta: float, a: float, b: float):
    """Move a (1-u)^alpha (1+u)^beta rule on (-1, 1) onto (a, b)."""
    if not -math.inf < a < b < math.inf:
        raise DomainError("rule interval needs finite a < b")
    nodes, weights = base
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half ** (alpha + beta + 1.0) * weights


def _require_finite(spec, *params) -> None:
    for p in params:
        try:
            finite = math.isfinite(p)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DomainError(f"rule spec {spec!r} needs finite real parameters, got {p!r}")


def _rule_arrays(spec, order: int):
    """(nodes, weights) of the rule `spec` names, before the mass check."""
    match spec:
        case ("jacobi", alpha, beta):
            _require_finite(spec, alpha, beta)
            return _jacobi_rule(order, alpha, beta)
        case ("jacobi", alpha, beta, a, b):
            _require_finite(spec, alpha, beta, a, b)
            return _on_interval(_jacobi_rule(order, alpha, beta), alpha, beta, a, b)
        case ("legendre", a, b):
            _require_finite(spec, a, b)
            return _on_interval(_jacobi_rule(order, 0.0, 0.0), 0.0, 0.0, a, b)
        case ("laguerre", gamma, scale):
            _require_finite(spec, gamma, scale)
            return _laguerre_rule(order, gamma, scale)
        case ("panels", panels) if panels:
            _require_finite(spec, *(x for panel in panels for x in panel))
            base = _jacobi_rule(order, 0.0, 0.0)
            moved = [_on_interval(base, 0.0, 0.0, a, b) for a, b in panels]
            return np.concatenate([m[0] for m in moved]), np.concatenate([m[1] for m in moved])
        case ("periodic",):
            step = 2.0 * math.pi / order
            return (np.arange(order) + 0.5) * step, np.full(order, step)
    raise DomainError(f"unknown rule spec {spec!r}")


def build_rule(spec, order: int) -> QuadratureRule:
    """Build the n-point rule an axis spec names (see the module docstring
    for the spec forms).  A `panels` spec builds its Legendre base
    rule once and moves it onto every panel.  The order must be an int >= 1
    and every parameter finite; a weight mass that is not a positive finite
    float raises DomainError.  The rule's arrays are read-only."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise DomainError(f"rule order must be an int >= 1, got {order!r}")
    try:
        with np.errstate(over="ignore"):  # the weight mass is checked below
            nodes, weights = _rule_arrays(spec, order)
    except OverflowError:
        raise DomainError(f"weight mass of {spec!r} overflows") from None
    return QuadratureRule(spec, *_finished(nodes, weights, spec))


CHUNK = 4096  # grid points per integrand call


def _each_point(f: Callable, xs, packed: bool) -> np.ndarray:
    """f called once per point of the equal-length node arrays xs, with one
    Python scalar per array: as separate arguments, or as one tuple when
    packed."""
    points = zip(*(x.tolist() for x in xs))
    return np.array([f(p) for p in points] if packed else [f(*p) for p in points])


def _on_arrays(f: Callable, xs, packed: bool):
    """f's values on the whole node arrays xs, passed as read-only views, or
    None unless the call raised nothing, warned nothing and returned a
    finite float or complex ndarray of the arrays' shape."""
    views = []
    for x in xs:
        view = x.view()
        view.flags.writeable = False
        views.append(view)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = f(tuple(views)) if packed else f(*views)
    except Exception:
        # not an array function; a per-point call raises the real error
        return None
    if (caught or type(out) is not np.ndarray or out.dtype.kind not in "fc"
            or out.shape != xs[0].shape or not np.isfinite(out).all()):
        return None
    return out


class ArrayFormula:
    """A function the library writes on node arrays, such as a lift, as
    `grid`; a one-point call runs it on one-element float arrays and
    returns a Python scalar."""

    def __init__(self, grid: Callable):
        self.grid = grid

    def __call__(self, *point):
        return self.grid(*(np.array([c], dtype=float) for c in point))[0].item()


def node_values(f: Callable, packed: bool = False) -> Callable:
    """Array form of a function: given equal-length node arrays, f's
    values at their points.  An `ArrayFormula` gives its own `grid`; any
    other f takes one argument per array, or, when packed, one tuple.

    Each call first tries f on the whole arrays (see `_on_arrays` for what
    a result must pass); when that fails, it calls f once per point, with
    one Python scalar per array, and every later call of this adapter does
    the same, so f's own errors and warnings surface from a per-point
    call."""
    if isinstance(f, ArrayFormula):
        return f.grid
    arrays = True

    def values(*xs):
        nonlocal arrays
        if arrays:
            out = _on_arrays(f, xs, packed)
            if out is not None:
                return out
            arrays = False
        return _each_point(f, xs, packed)

    return values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _spread(a: np.ndarray, times: int) -> np.ndarray:
    """a with each entry repeated `times` times in a row; a itself when
    `times` is 1, so no copy is made."""
    return a.repeat(times) if times > 1 else a


def _block(rules: Sequence[QuadratureRule], rows: int):
    """Node and weight arrays, one pair per rule, of the tensor grid of
    `rules` in C order, repeated `rows` times; the node arrays are
    read-only.  One rule over one row is handed over as it is."""
    inner, outer = math.prod(r.order for r in rules), rows
    nodes, weights = [], []
    for r in rules:
        inner //= r.order
        for a, out in ((r.nodes, nodes), (r.weights, weights)):
            if inner > 1:
                a = a.repeat(inner)
            if outer > 1:
                a = a[None].repeat(outer, 0).reshape(-1)
            out.append(a)
        outer *= r.order
    return [_read_only(x) for x in nodes], weights


def integrate(f: Callable, *rules: QuadratureRule):
    """Sum f against the tensor product of one or more rules.

    f receives one read-only node array per rule, in rule order, holding
    one chunk of at most CHUNK grid points in C order (last rule fastest),
    and returns the chunk's values.  The trailing rules whose grid fits in
    one chunk form a block, laid out once per call for as many rows as a
    chunk holds; each chunk is a run of consecutive leading multi-indices
    times the whole block, so only the leading indices are unravelled per
    chunk.  When the last rule alone is longer than CHUNK, the block is
    empty and a chunk is CHUNK leading points.  Each point's weight is the
    product of its axis weights taken from the left (the leading product,
    then each block pattern in axis order), and the points are summed left
    to right in one running sum carried across chunks, so the result is
    reproducible bit for bit wherever the chunk boundaries fall.  Raises
    DomainError when the total is not finite.
    """
    if not rules:
        raise DomainError("integrate needs at least one rule")
    split, block = len(rules), 1
    while split and block * rules[split - 1].order <= CHUNK:
        split -= 1
        block *= rules[split].order
    lead, tail = rules[:split], rules[split:]
    shape = tuple(r.order for r in lead)
    size = math.prod(shape)
    rows = min(CHUNK // block, size)
    tail_nodes, tail_weights = _block(tail, rows)
    total = 0.0
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        n = (stop - start) * block
        index = np.unravel_index(np.arange(start, stop), shape) if lead else ()
        nodes = [_read_only(_spread(r.nodes[i], block)) for r, i in zip(lead, index)]
        head = [r.weights[i] for r, i in zip(lead, index)]
        if head:
            head = [_spread(functools.reduce(np.multiply, head), block)]
        weights = functools.reduce(np.multiply, head + [w[:n] for w in tail_weights])
        values = f(*nodes, *(x[:n] for x in tail_nodes))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            total = np.add.accumulate(np.concatenate(([total], weights * values)))[-1]
    if not np.isfinite(total):
        specs = [r.spec for r in rules]
        raise DomainError(f"integral over {specs} is not finite: {total}")
    return total.item()


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    converged: bool
    evaluations: int


def _rel_delta(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def integrate_adaptive(
    f: Callable,
    spec,
    tol: float = 1e-10,
    start_order: int = 16,
    max_order: int = 512,
) -> IntegralResult:
    """Order-doubling integration on the one rule `spec` names: the
    one-axis case of `integrate_region`, with a longer default schedule.
    f receives one node array (see `integrate`).  Converges or raises
    DomainError."""
    return integrate_region(f, [spec], tol, start_order, max_order)


def geometric_panels(inner: float, outer: float, first: float = 1.0) -> list:
    """Split (inner, outer) into geometrically growing panels.

    Used for truncated half-line integrals whose mass sits near the inner
    edge: panel widths double, so a fixed-order rule per panel resolves both
    the peak and the tail.
    """
    if not first > 0:
        raise DomainError("geometric_panels needs a positive first width")
    if not all(math.isfinite(v) for v in (inner, outer, first)):
        raise DomainError(
            f"geometric_panels needs finite inner, outer and first, "
            f"got {inner!r}, {outer!r}, {first!r}"
        )
    if not outer > inner:
        raise DomainError("geometric_panels needs outer > inner")
    breaks = [inner]
    width = first
    while breaks[-1] + width < outer:
        breaks.append(breaks[-1] + width)
        width *= 2
    breaks.append(outer)
    return [(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]


def integrate_region(
    f: Callable,
    axes: Sequence,
    tol: float = 1e-8,
    start_order: int = 8,
    max_order: int = 64,
) -> IntegralResult:
    """Tensor-product integration over any number of axes with order doubling.

    Each axis is a `build_rule` spec; f receives one node array per axis,
    in axis order (see `integrate`).  Every pass builds each axis rule at
    the current order, doubling from start_order up to max_order, and
    stops when two successive passes agree to tol (relative, floored at
    scale 1).  It converges or raises: a schedule that ends without two
    agreeing passes, including one too short to run two, raises DomainError
    naming the axes, the last order run, the error estimate and the number
    of evaluations.  Truncation of infinite regions is the caller's job
    (the conventional default truncation radius is 1e3).
    """
    order = start_order
    prev = None
    err = float("inf")
    evals = 0
    while order <= max_order:
        rules = [build_rule(spec, order) for spec in axes]
        cur = integrate(f, *rules)
        evals += math.prod(r.order for r in rules)
        if prev is not None:
            err = _rel_delta(cur, prev)
            if err < tol:
                return IntegralResult(cur, err, True, evals)
        prev = cur
        order *= 2
    last = order // 2 if evals else None
    raise DomainError(
        f"integral over {list(axes)} did not converge: last order {last}, "
        f"error estimate {err:.2e}, {evals} evaluations"
    )
