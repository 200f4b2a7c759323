"""Exact symbolic terms for the transform calculus.

A term is ``coefficient * monomial * product of base powers`` where each base
is a polynomial of degree at most two with exact Gaussian-rational
coefficients, raised to an exponent that may be an exact rational or an
arbitrary complex number.  Sums of terms are closed under exactly the
operations the transforms need -- differentiation, restriction to a
hyperplane or the diagonal, pointwise evaluation, the sl2 action -- and
nothing else: there is deliberately no general term-times-term product.
Restriction is an exponent substitution: one map on exponent tuples,
applied to the term monomial and to every base entry.  A differential
operator with polynomial coefficients -- `sl2_action` here, the
Rankin-Cohen, Casimir and wave operators elsewhere -- is one table of rows
c z^m d^alpha f that `apply_operator` sums and normalizes once; operators
that add whole sums, such as `sl2_casimir`, `combine` them in one pass.

Two equality modes are provided.  Exact mode decides equality of sums with
rational data by canonicalizing the difference: within each base, exponents
that differ by integers are rewritten over the minimal one, every positive
integer power is expanded into monomials, and the result must vanish
identically.  Sampled mode compares values at a fixed pseudo-random set of
tube-domain points.

`evaluate` takes a point of scalars, or of numpy arrays that it broadcasts
together and evaluates in one numpy pass, so a quadrature component such as
``lambda z: evaluate(g, (z,))`` runs on whole node arrays.  Points within a
small slack of a pole, of the branch-cut test or of a non-finite value fall
back to one-point evaluation, which raises the first such point's own error.
Sampled equality evaluates each side once on one array per coordinate and
falls back to its one-point loop only when an array call raises.

The F-method checks repeat a few exact computations many times; each of
them runs once per distinct value:

- A base is interned by its arity and entries, so a base asked for again is
  looked up without building its Fraction sort key.  The registry holds one
  object per distinct base.
- A base's derivative in each variable is computed once and kept, read-only,
  on the base itself, so this cache is bounded by the registry.
- A sum's hash is computed on first use and kept on the sum, and a base's
  image under each restriction is computed once (bounded by the registry).
- An exact sum's derivative lattice, and the expansion of a base to a
  nonnegative integer power, are each memoized in an LRU cache of 128
  entries (a bound measured on the exact benchmark ladders).  A lattice keeps
  every partial derivative d^alpha f it has built and builds the next by one
  pass from a neighbour, so the routes, weights and orders that climb
  ladders of one input resume from its top rung.

`apply_operator(f, rows, kind)` climbs a lattice that drops the terms the
restriction `kind` must kill when a base of f vanishes under it; that lattice
and `restrict` share one test of whether a base vanishes.

The lattice holds each derivative in class-offset coordinates.  The sum is
split once into classes, a class being one base with one exponent modulo 1,
so that each term is its monomial plus one integer numerator per class.
Every pass is integer arithmetic on a dict, with no Fraction exponent and
no sort.  `differentiate` rebuilds one normal sum from one state;
`apply_operator` sums an operator over the states and rebuilds once.
`canonical_form` reads the same split and expands in Gaussian integers:
`_expand_base_power(b, n)` gives b^n as (den, ((exponent, re, im), ...)),
integer entries over den = D^n for D the lcm of b's entry denominators, and
`_sparse_product` multiplies (re, im) pairs.  Each term expands over its own
denominator, the terms of one signature are summed over their common
denominator, and each nonzero output coefficient becomes one QQi, at one gcd.

Only exact sums, every coefficient a QQi and every exponent a Fraction,
enter the lattice memo: a float sum can compare and hash equal to an
exact one (exponent 2 + 0j against Fraction(2), a coefficient part -0.0
against 0.0) and still differentiate to a sum that prints differently.

Scalars are exact Gaussian rationals (`QQi`) where the data allow and
machine complex numbers otherwise.  A QQi is one Gaussian integer over one
positive denominator, (a + b*i) / d in lowest terms, so each result costs
integer products and one gcd; its `re` and `im` Fractions are derived on
request.  Arithmetic on a QQi stays exact against an int, Fraction or QQi
and degrades to complex against a float or complex.

The textual s-expression format round-trips exact sums; see
docs/holosum-format.md for the grammar.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .special_poly import DomainError, PoleError, is_exact


class SingularRestrictionError(ValueError):
    """Restriction made a base vanish under a non-positive-integer power."""


class BranchCutError(ValueError):
    """Evaluation hit a power within 1e-10 of the principal branch cut."""


class ExactnessError(ValueError):
    """Exact-mode operation received non-rational data."""


class ParseError(ValueError):
    """Malformed holosum text.  `pos` is the character offset of the last
    token the parser took (the last token, at end of input)."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# scalars: exact Gaussian rationals, degrading to complex


class QQi:
    """Gaussian rational (a + b*i) / d held as three ints with d > 0 and
    gcd(a, b, d) == 1, so every value has one representation; `_make`
    restores the invariant with one gcd per result.  `re` and `im` are
    derived Fractions.  Closed under `+`, `-`, `*` and `** int` (a negative
    power inverts) as the module docstring describes; immutable.

    `QQi(re, im)` takes exact parts (int or Fraction) and raises
    ExactnessError for anything else.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re, im=0):
        if not (is_exact(re) and is_exact(im)):
            raise ExactnessError(f"QQi parts must be int or Fraction, got {re!r}, {im!r}")
        p, q = re.denominator, im.denominator
        return _make(re.numerator * q, im.numerator * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (QQi, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __repr__(self) -> str:
        return f"QQi(re={self.re!r}, im={self.im!r})"

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self._a == other._a and self._b == other._b and self._d == other._d
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, so this is float(self.re) exactly
        return complex(self._a / self._d, self._b / self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __neg__(self) -> "QQi":
        return _make(-self._a, -self._b, self._d)

    def __add__(self, other):
        if isinstance(other, QQi):
            d1, d2 = self._d, other._d
            return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)
        if is_exact(other):
            p, q = other.numerator, other.denominator
            return _make(self._a * q + p * self._d, self._b * q, self._d * q)
        if isinstance(other, numbers.Complex):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QQi):
            d1, d2 = self._d, other._d
            return _make(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)
        if is_exact(other):
            p, q = other.numerator, other.denominator
            return _make(self._a * q - p * self._d, self._b * q, self._d * q)
        if isinstance(other, numbers.Complex):
            return complex(self) - complex(other)
        return NotImplemented

    def __rsub__(self, other):
        if is_exact(other):
            p, q = other.numerator, other.denominator
            return _make(p * self._d - self._a * q, -self._b * q, self._d * q)
        if isinstance(other, numbers.Complex):
            return complex(other) - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QQi):
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)
        if is_exact(other):
            p = other.numerator
            return _make(self._a * p, self._b * p, self._d * other.denominator)
        if isinstance(other, numbers.Complex):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            a, b, d = self._a, self._b, self._d
            if not (a or b):
                raise ZeroDivisionError("inverse of exact zero")
            base = _make(d * a, -d * b, a * a + b * b)
        out = QQI_ONE
        for _ in range(abs(n)):
            out = out * base
        return out


_new_qqi = object.__new__
_set_a, _set_b, _set_d = QQi._a.__set__, QQi._b.__set__, QQi._d.__set__


def _make(a: int, b: int, d: int) -> QQi:
    """(a + b*i) / d for ints with d > 0, normalized by one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new_qqi(QQi)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def qqi(re, im=0) -> QQi:
    return QQi(re, im)


QQI_ONE = qqi(1)


def exactify(x):
    """Coerce to QQi when exactly representable, else None."""
    if isinstance(x, QQi):
        return x
    if is_exact(x):
        return _make(x.numerator, 0, x.denominator)
    return None


# exponents: Fraction when exact, complex/float otherwise


def e_coerce(p):
    if isinstance(p, Fraction):
        return p
    if is_exact(p):
        return Fraction(p)
    if isinstance(p, (float, complex)):
        return complex(p)
    raise TypeError(f"bad exponent {p!r}")


def e_key(p):
    if isinstance(p, Fraction):
        return ("F", p.numerator, p.denominator)
    return ("C", p.real, p.imag)


def _exponents(ks) -> tuple:
    """A monomial's exponents as ints.  An entry `operator.index` rejects,
    such as 1.5, or a bool raises DomainError rather than being truncated;
    numpy integers are accepted."""
    ks = tuple(ks)
    if bool not in map(type, ks):
        try:
            return tuple(map(operator.index, ks))
        except TypeError:
            pass
    raise DomainError(f"monomial exponents must be integers, got {ks!r}")


# ---------------------------------------------------------------------------
# base polynomials (degree <= 2, exact coefficients), interned


@dataclass(frozen=True, eq=False)
class BasePoly:
    """Exact polynomial of degree <= 2 in `arity` variables.

    Equality, hash and order read `key`, (arity, ((e, (re, im)), ...)), built
    once here: bases compare by value, so interning through `base_poly` is an
    economy, not a correctness condition.  Derivatives are kept per variable
    once computed; a pickle holds only arity and entries.
    """

    arity: int
    entries: tuple  # sorted ((e1, ..., en), QQi) pairs
    key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _derivatives: dict = field(init=False, repr=False)  # var -> read-only mapping

    def __post_init__(self):
        key = (self.arity, tuple((e, (c.re, c.im)) for e, c in self.entries))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_derivatives", {})

    def __reduce__(self):
        return (BasePoly, (self.arity, self.entries))

    def __eq__(self, other):
        return self is other or (isinstance(other, BasePoly) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def evaluate(self, point) -> complex:
        out = 0j
        for e, c in self.entries:
            v = complex(c)
            for z, k in zip(point, e):
                if k:
                    v = v * complex(z) ** k
            out += v
        return out

    def differentiate(self, var: int):
        """Return the derivative as a (possibly empty) read-only entry
        mapping, computed on the first call for `var` and shared after."""
        d = self._derivatives.get(var)
        if d is None:
            d = self._derivatives[var] = MappingProxyType({
                e[:var] + (e[var] - 1,) + e[var + 1 :]: c * e[var]
                for e, c in self.entries
                if e[var]
            })
        return d


_REGISTRY: dict = {}  # (arity, entries) -> BasePoly


def base_poly(arity: int, mapping) -> BasePoly:
    """Build an exact degree-<=2 polynomial as a base, interned.

    The registry is append-only and keyed by (arity, entries): the first
    request for a given value constructs the base and every later request
    returns it without constructing one.  Interning saves objects and key
    builds; equality never depends on it.
    """
    entries = []
    for e, c in dict(mapping).items():
        e = _exponents(e)
        if len(e) != arity or any(k < 0 for k in e):
            raise DomainError(f"bad base monomial {e!r} for arity {arity}")
        if sum(e) > 2:
            raise DomainError("base polynomials are limited to degree 2")
        ec = exactify(c)
        if ec is None:
            raise ExactnessError(f"base coefficient {c!r} is not exact")
        if ec:
            entries.append((e, ec))
    entries = tuple(sorted(entries))
    if not entries:
        raise DomainError("the zero polynomial cannot be a base")
    return _intern(arity, entries)


def _intern(arity: int, entries: tuple) -> BasePoly:
    """The registered base with these sorted, nonzero entries.  A QQi hashes
    as its three ints, so the lookup builds no Fraction."""
    b = _REGISTRY.get((arity, entries))
    if b is None:
        b = _REGISTRY[(arity, entries)] = BasePoly(arity, entries)
    return b


def registered_bases() -> tuple:
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# terms and sums


@dataclass(frozen=True)
class HoloTerm:
    coefficient: object  # QQi or complex
    monomial: tuple
    bases: tuple  # sorted ((BasePoly, exponent), ...), unique bases


@dataclass(frozen=True)
class HoloSum:
    arity: int
    terms: tuple

    def __hash__(self):
        # the dataclass field hash, computed once per object, since each memo
        # lookup hashes its sum; `__getstate__` leaves it out of pickles
        try:
            return self._hash
        except AttributeError:
            h = hash((self.arity, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {"arity": self.arity, "terms": self.terms}


def term(arity: int, coefficient, monomial=None, bases=()) -> HoloTerm:
    """Normalize one term: merge duplicate bases, fold monomial bases.

    A base that is a single monomial raised to a positive integer power is
    folded into the term monomial.  A constant base folds into the
    coefficient: exactly under an integer exponent, by the principal power
    otherwise, also on the cut (a negative constant is exact, so the
    evaluation guard does not apply).  Exponent-zero factors drop.
    """
    coeff = exactify(coefficient)
    if coeff is None:
        coeff = complex(coefficient)
    mono = _exponents(monomial or (0,) * arity)
    if len(mono) != arity or any(m < 0 for m in mono):
        raise DomainError(f"bad monomial {mono!r}")
    merged: dict = {}
    for b, p in bases:
        if b.arity != arity:
            raise DomainError("base arity mismatch")
        p = e_coerce(p)
        merged[b] = merged[b] + p if b in merged else p
    out_bases = []
    for b, p in merged.items():
        if not p:
            continue
        if len(b.entries) == 1:
            e, c = b.entries[0]
            if _positive_int(p):
                n = int(p)
                coeff = coeff * c**n
                mono = tuple(m + n * ei for m, ei in zip(mono, e))
                continue
            if sum(e) == 0:
                # an exact constant: its principal power needs no cut guard
                if isinstance(p, Fraction) and p.denominator == 1:
                    coeff = coeff * c ** int(p)
                else:
                    coeff = coeff * complex(c) ** (float(p) if isinstance(p, Fraction) else p)
                continue
        out_bases.append((b, p))
    out_bases.sort(key=lambda bp: bp[0])
    return HoloTerm(coeff, mono, tuple(out_bases))


def holo_sum(arity: int, terms: Iterable[HoloTerm]) -> HoloSum:
    """Collect like terms and drop those whose coefficients cancel.

    Terms come out sorted by signature: monomial, then bases (in base key
    order), then each base's exponent as `e_key` orders it.
    """
    acc: dict = {}  # signature -> [coefficient, first term]
    for t in terms:
        if len(t.monomial) != arity:
            raise DomainError("term arity mismatch")
        k = (t.monomial, tuple((b, e_key(p)) for b, p in t.bases))
        if k in acc:
            acc[k][0] += t.coefficient
        else:
            acc[k] = [t.coefficient, t]
    out = []
    for k in sorted(acc):
        c, t = acc[k]
        if c:
            out.append(HoloTerm(c, t.monomial, t.bases))
    return HoloSum(arity, tuple(out))


def monomial(arity: int, exponents, c=1) -> HoloSum:
    return holo_sum(arity, [term(arity, c, exponents)])


def combine(arity: int, pieces) -> HoloSum:
    """The linear combination of c * f over the (c, f) pairs, normalized by
    one holo_sum pass.  Each f is already normal, so its terms are only
    rescaled; like terms meet in piece order."""
    terms = []
    for c, f in pieces:
        if f.arity != arity:
            raise DomainError("arity mismatch in combine")
        terms += [HoloTerm(t.coefficient * c, t.monomial, t.bases) for t in f.terms]
    return holo_sum(arity, terms)


def scale(f: HoloSum, s) -> HoloSum:
    return combine(f.arity, [(s, f)])


def sub(f: HoloSum, g: HoloSum) -> HoloSum:
    return combine(f.arity, [(1, f), (-1, g)])


def _times_monomial(f: HoloSum, e: tuple) -> HoloSum:
    """f times z^e, e a checked row monomial of `apply_operator`.  Shifting
    every monomial alike keeps the terms distinct and in order, so the
    product is already normal."""
    return HoloSum(f.arity, tuple(
        HoloTerm(t.coefficient, tuple(m + k for m, k in zip(t.monomial, e)), t.bases)
        for t in f.terms
    ))


def _is_exact_sum(f: HoloSum) -> bool:
    """Every coefficient a QQi and every exponent a Fraction: the sums on
    which value equality is identity, so a derivative may be shared."""
    return all(
        type(t.coefficient) is QQi and all(type(p) is Fraction for _, p in t.bases)
        for t in f.terms
    )


def differentiate(f: HoloSum, var: int, times: int = 1) -> HoloSum:
    """Partial derivative in variable `var` (0-indexed), `times` times.

    `var` and `times` must be ints (not bools) and `times` nonnegative;
    `times == 0` returns f.  An exact sum (every coefficient a QQi, every
    exponent a Fraction; its derivatives are exact too) reads the state of
    its derivative lattice (`_lattice`) and rebuilds one normal sum.  A
    float sum takes `times` passes of `_derivative` and is never cached: a
    sum with exponent 2 + 0j compares and hashes equal to the one with
    Fraction(2), and a coefficient part -0.0 equal to 0.0, yet their
    derivatives print differently.
    """
    ints = all(isinstance(x, int) and not isinstance(x, bool) for x in (var, times))
    if not ints or times < 0:
        raise DomainError(f"var and times must be ints, times >= 0; got {var!r}, {times!r}")
    if not 0 <= var < f.arity:
        raise DomainError(f"variable {var} out of range")
    if times and _is_exact_sum(f):
        lattice = _lattice(f)
        return lattice.rebuild(lattice.state((0,) * var + (times,) + (0,) * (f.arity - var - 1)))
    for _ in range(times):
        f = _derivative(f, var)
    return f


def apply_operator(f: HoloSum, rows, restriction=None) -> HoloSum:
    """The sum of c * z^m * d^alpha f over the rows (alpha, c, m), or (alpha,
    c) with m = 0, alpha and m holding one count per variable, restricted by
    `restriction` when it is a kind that `restrict` takes.  On an exact sum
    f's lattice states are shifted by m and summed, in row order, and one
    normal sum is rebuilt; on a float sum each distinct alpha climbs once, in
    variable order, and the pieces are `combine`d, so its coefficients round
    as they always have.  A bad kind or arity raises before any pass.  An
    exact f with a base that vanishes under the restriction climbs a lattice
    built for this call alone, to this operator's order, that drops what the
    restriction must kill (see `_Lattice`)."""
    n, zero = f.arity, (0,) * f.arity
    if restriction is not None:
        _check_restriction(f, restriction)
    rows = [(_exponents(r[0]), r[1], _exponents(*r[2:]) if len(r) > 2 else zero) for r in rows]
    if (any(len(a) != n or len(m) != n for a, _, m in rows)
            or any(k < 0 for a, _, m in rows for k in a + m)):
        raise DomainError(f"need {n} counts >= 0 in each alpha and m, got {rows!r}")
    if not _is_exact_sum(f):
        climbed = {a: functools.reduce(lambda g, vt: differentiate(g, *vt), enumerate(a), f)
                   for a in {a for a, _, _ in rows}}
        out = combine(f.arity, [(c, _times_monomial(climbed[a], m)) for a, c, m in rows])
    else:
        if restriction is not None and any(_restricted_base(b, restriction) is None
                                           for t in f.terms for b, _ in t.bases):
            lattice = _Lattice(f, restriction, max((sum(a) for a, _, _ in rows), default=0))
        else:
            lattice = _lattice(f)
        acc = {}
        for alpha, c, m in rows:
            state = lattice.state(alpha)
            if m is not zero:  # a row given with m
                state = {(tuple(map(operator.add, mono, m)), nums): v
                         for (mono, nums), v in state.items()}
            for k, v in state.items():
                v = v * c
                prev = acc.get(k)
                acc[k] = v if prev is None else prev + v
        out = lattice.rebuild({k: v for k, v in acc.items() if v})
    return out if restriction is None else restrict(out, restriction)


def _derivative(f: HoloSum, var: int) -> HoloSum:
    """One partial derivative in `var`.

    Each derivative term is built normal, without `term`: a base of a normal
    term is neither constant nor a single monomial under a positive integer
    power, so `(b, p - 1)` folds nowhere and only drops at exponent zero; it
    goes back at b's own index, which keeps the bases sorted.
    """
    out = []
    for t in f.terms:
        c, mono, bases = t.coefficient, t.monomial, t.bases
        m = mono[var]
        if m:
            out.append(HoloTerm(c * m, mono[:var] + (m - 1,) + mono[var + 1 :], bases))
        for i, (b, p) in enumerate(bases):
            db = b.differentiate(var)
            if not db:
                continue
            lowered = bases[:i] + (((b, p - 1),) if p != 1 else ()) + bases[i + 1 :]
            for e, dc in db.items():
                shifted = tuple(mm + ee for mm, ee in zip(mono, e))
                out.append(HoloTerm(c * p * dc, shifted, lowered))
    return holo_sum(f.arity, out)


def _class_split(f: HoloSum) -> tuple:
    """An exact sum in class-offset coordinates: (classes, rows).

    A class is one base with one exponent modulo 1, so the exponents of a
    class differ by integers: all are n/d over the class denominator d, and
    an integer class has d = 1.  `classes` lists each class as (base, d),
    ordered by base.  `rows` holds each term, in order, as (coefficient,
    monomial, nums), where nums[j] is the numerator n of the term's
    exponent n/d in class j (in lowest terms) and 0 when the term lacks that
    class.  A base of a term sits in exactly one class, and n is never 0
    for a fractional class, so 0 marks absence alike in every class.
    """
    index: dict = {}  # (base, numerator mod d, d) -> class number
    cells = []
    for t in f.terms:
        row = []
        for b, p in t.bases:
            n, d = p.numerator, p.denominator
            key = (b, n % d, d)
            index[key] = None
            row.append((key, n))
        cells.append(row)
    order = sorted(index, key=lambda key: key[0])
    for j, key in enumerate(order):
        index[key] = j
    rows = []
    for t, row in zip(f.terms, cells):
        nums = [0] * len(order)
        for key, n in row:
            nums[index[key]] = n
        rows.append((t.coefficient, t.monomial, tuple(nums)))
    return tuple((b, d) for b, _, d in order), rows


class _Lattice:
    """The partial derivatives d^alpha f of one exact sum f, each a state
    {(monomial, nums): QQi} over f's one `_class_split`.

    A state is one integer pass above the state one below it in its last
    nonzero variable, so the Rankin-Cohen keys (l - j, j) of order l each
    sit one pass above a key of order l - 1.  A pass lowers the monomial
    exponent m of `var` with factor m, and each class numerator n with
    factor n/d times the base's derivative, to n - d; an integer class at
    n = 1 drops its base there, as `_derivative` does.  `rebuild` orders
    terms as `holo_sum` does: by monomial, then by each (base, exponent),
    the exponent compared as (numerator, denominator), as `e_key` does.

    A lattice for a restriction kind and a depth drops each term whose
    classes with a vanishing base are all integer classes at positive
    numerators, one above the passes left to the depth: a pass lowers such a
    numerator by at most one, so the restriction kills every descendant.
    """

    def __init__(self, f: HoloSum, restriction=None, depth: int = 0):
        self.arity, self.depth = f.arity, depth
        self.classes, rows = _class_split(f)
        self._vanishing = [(j, d) for j, (b, d) in enumerate(self.classes)
                           if restriction and _restricted_base(b, restriction) is None]
        root = {(mono, nums): c for c, mono, nums in rows}
        self.states = {(0,) * f.arity: self._prune(root, depth)}
        self._steps = [  # per variable: [(class, d, [(e, re, im, den * d)])]
            [(j, d, [(e, c._a, c._b, c._d * d) for e, c in b.differentiate(var).items()])
             for j, (b, d) in enumerate(self.classes) if b.differentiate(var)]
            for var in range(f.arity)
        ]
        first: dict = {}  # base -> its first class, a rank in base order
        self._rank = [first.setdefault(b, j) for j, (b, _) in enumerate(self.classes)]
        self._pairs: dict = {}  # (class, numerator) -> (base, exponent)

    def state(self, alpha: tuple) -> dict:
        """d^alpha f, kept with every state on its path; do not mutate it."""
        path = []
        while alpha not in self.states:  # down to the nearest kept state
            var = max(k for k, a in enumerate(alpha) if a)
            path.append((alpha, var))
            alpha = alpha[:var] + (alpha[var] - 1,) + alpha[var + 1 :]
        state = self.states[alpha]
        for alpha, var in reversed(path):
            state = self.states[alpha] = self._prune(self._pass(state, var), self.depth - sum(alpha))
        return state

    def _prune(self, terms: dict, passes: int) -> dict:
        """terms without those the restriction kills after `passes` more."""
        def kept(nums):
            held = [(nums[j], d) for j, d in self._vanishing if nums[j]]
            return not held or any(d != 1 or n < 0 for n, d in held) or max(held)[0] <= passes

        return {k: c for k, c in terms.items() if kept(k[1])} if self._vanishing else terms

    def _pass(self, terms: dict, var: int) -> dict:
        steps, add = self._steps[var], operator.add
        out: dict = {}
        for (mono, nums), c in terms.items():
            a, b, q = c._a, c._b, c._d
            m = mono[var]
            if m:
                k = (mono[:var] + (m - 1,) + mono[var + 1 :], nums)
                v = _make(a * m, b * m, q)
                prev = out.get(k)
                out[k] = v if prev is None else prev + v
            for j, d, entries in steps:
                n = nums[j]
                if not n:
                    continue
                lowered = nums[:j] + (n - d,) + nums[j + 1 :]
                an, bn = a * n, b * n
                for e, x, y, w in entries:
                    k = (tuple(map(add, mono, e)), lowered)
                    v = _make(an * x - bn * y, an * y + bn * x, q * w)
                    prev = out.get(k)
                    out[k] = v if prev is None else prev + v
        return {k: v for k, v in out.items() if v}

    def rebuild(self, terms: dict) -> HoloSum:
        """The normal sum of class-offset terms {(monomial, nums): coefficient}."""
        classes, rank, pairs = self.classes, self._rank, self._pairs

        def signature(item):
            (mono, nums), _ = item
            return mono, tuple((rank[j], n, classes[j][1]) for j, n in enumerate(nums) if n)

        out = []
        for (mono, nums), c in sorted(terms.items(), key=signature):
            bases = []
            for j, n in enumerate(nums):
                if n:
                    bp = pairs.get((j, n))
                    if bp is None:
                        b, d = classes[j]
                        bp = pairs[(j, n)] = (b, Fraction(n, d))
                    bases.append(bp)
            out.append(HoloTerm(c, mono, tuple(bases)))
        return HoloSum(self.arity, tuple(out))


# One exact-ladder benchmark repetition makes 592 lookups over 87 lattices; 128
# entries, or 32, read back all 505 repeats (16 read 502); CI's deepest needs 55.
@functools.lru_cache(maxsize=128)
def _lattice(f: HoloSum) -> _Lattice:
    """One unpruned derivative lattice per distinct exact sum; a lookup hashes
    f once."""
    return _Lattice(f)


def _cut_last(e):
    return None if e[-1] else e[:-1]


def _join_pair(e):
    return (e[0] + e[1],)


_CUTS = {"last-zero": _cut_last, "diagonal": _join_pair}


@functools.lru_cache(maxsize=None)
def _restricted_base(b: BasePoly, kind: str):
    """b under the `kind` substitution, interned, or None when it vanishes
    there: the one vanishing test of `restrict` and of a pruning lattice."""
    cut, m = _CUTS[kind], {}
    for e, c in b.entries:
        e = cut(e)
        if e is not None:
            m[e] = m[e] + c if e in m else c
    entries = tuple(sorted((e, c) for e, c in m.items() if c))
    return _intern(b.arity - 1, entries) if entries else None


def _positive_int(p) -> bool:
    return isinstance(p, Fraction) and p.denominator == 1 and p > 0


def _check_restriction(f: HoloSum, kind) -> None:
    if kind == "last-zero":
        if f.arity < 1:
            raise DomainError("nothing to restrict")
    elif kind == "diagonal":
        if f.arity != 2:
            raise DomainError("diagonal restriction needs arity 2")
    else:
        raise DomainError(f"unknown restriction {kind!r}")


def restrict(f: HoloSum, kind: str) -> HoloSum:
    """Restrict to a boundary by substituting exponents.

    Kind 'last-zero' sets the final variable to zero: an exponent tuple with
    a nonzero last entry vanishes, any other loses that entry.  Kind
    'diagonal' identifies the two variables of an arity-2 sum:
    (i, j) -> (i + j,).  Either way the arity drops by one.  The one map is
    applied to the term monomial and to every base entry, and `term` folds
    the bases that became constants or single monomials.

    A term whose bases that vanish identically under the substitution all
    have positive integer exponents vanishes; any other exponent on one of
    them, whatever the base order and whether or not the monomial vanishes,
    raises SingularRestrictionError.
    """
    _check_restriction(f, kind)
    arity, cut = f.arity - 1, _CUTS[kind]
    out = []
    for t in f.terms:
        vanishing = [p for b, p in t.bases if _restricted_base(b, kind) is None]
        if not all(map(_positive_int, vanishing)):
            raise SingularRestrictionError(f"bases vanish under {kind} with exponents {vanishing}")
        mono = cut(t.monomial)
        if mono is not None and not vanishing:
            bases = [(_restricted_base(b, kind), p) for b, p in t.bases]
            out.append(term(arity, t.coefficient, mono, bases))
    return holo_sum(arity, out)


# ---------------------------------------------------------------------------
# evaluation


def _principal_power(b: complex, p) -> complex:
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


def evaluate(f: HoloSum, point):
    """Evaluate at a point, principal branch for every non-integer power.

    Raises BranchCutError when a base value falls within 1e-10 of the
    negative real axis under a non-integer exponent: on tube domains that
    signals an ill-posed branch choice rather than a numeric accident.
    Raises PoleError at a zero base under a power without a positive real
    part, and DomainError naming the value and the point when it is not
    finite.

    A point of Python or numpy scalars gives a complex.  Each distinct base
    value and each (base, exponent) power is computed once per call and
    shared by the terms that hold it.  When any coordinate is a numpy array,
    the coordinates are broadcast together and the sum is computed on the
    whole arrays in numpy, giving a complex array of their shape; its values
    agree with one-point calls to about 1e-13 relative, not bit for bit.
    Points within a slack of a pole, of the cut test or of a non-finite value
    are then evaluated one at a time, in C order, by the one-point path, so
    the first of them that fails raises that point's own error.
    """
    if len(point) != f.arity:
        raise DomainError("point arity mismatch")
    if any(isinstance(z, np.ndarray) for z in point):
        return _evaluate_arrays(f, point)
    pt = tuple(complex(z) for z in point)
    try:
        total = _sum_terms(f, pt, lambda b: b.evaluate(pt), _principal_power)
    except OverflowError as exc:  # a complex power past the double range
        raise DomainError(f"value at {pt!r} is not finite: {exc}") from None
    if not cmath.isfinite(total):
        raise DomainError(f"value {total!r} at {point!r} is not finite")
    return total


def _sum_terms(f: HoloSum, zs, base_value, power):
    """The sum of f's terms at coordinates zs, scalars or arrays, with each
    monomial power, each base value (`base_value(b)`) and each principal
    power (`power(value, p)`) computed once, at its first use."""
    zpowers: dict = {}  # (variable, exponent) -> z**m
    values: dict = {}  # base -> base_value(base)
    powers: dict = {}  # (base, e_key) -> principal power
    total = 0j
    for t in f.terms:
        v = complex(t.coefficient)
        for k, m in enumerate(t.monomial):
            if m:
                zm = zpowers.get((k, m))
                if zm is None:
                    zm = zpowers[(k, m)] = zs[k] ** m
                v = v * zm
        for b, p in t.bases:
            key = (b, e_key(p))
            w = powers.get(key)
            if w is None:
                if b not in values:
                    values[b] = base_value(b)
                w = powers[key] = power(values[b], p)
            v = v * w
        total += v
    return total


# A base value below 1e-12 of its entries' summed size may be a rounded zero,
# and the argument of a base value is known only to about 1e-16 times that
# ratio; within these slacks of the pole and cut tests the array and
# one-point paths may decide differently, so such points go one at a time.
_ZERO_SLACK = 1e12
_ARG_SLACK = 1e-13


def _base_values(b: BasePoly, zs) -> tuple:
    """b on the coordinate arrays, and the ratio of its entries' summed size
    to its value's size (inf or nan where the value is zero)."""
    value = mag = 0
    for e, c in b.entries:
        v = complex(c)
        a = abs(v)
        for z, k in zip(zs, e):
            if k:
                v = v * z**k
                a = a * abs(z) ** k
        value = value + v
        mag = mag + a
    return value, mag / np.abs(value)


def _array_power(bv, ratio, p, risky):
    """Principal power of the base values bv, marking in risky every point
    where a one-point call could raise or differ at the pole or cut test."""
    if isinstance(p, Fraction) and p.denominator == 1:
        if p <= 0:
            risky |= ~(ratio < _ZERO_SLACK)
        return bv ** int(p)
    risky |= ~(ratio < _ZERO_SLACK)
    risky |= np.abs(np.abs(np.angle(bv)) - math.pi) < 1e-10 + _ARG_SLACK * ratio
    return bv ** (float(p) if isinstance(p, Fraction) else complex(p))


def _evaluate_arrays(f: HoloSum, point) -> np.ndarray:
    """`evaluate` on broadcast coordinate arrays: one numpy pass over the
    terms, then the one-point path at every point the pass marks risky."""
    raw = np.broadcast_arrays(*(np.asarray(z) for z in point))
    zs = [np.asarray(z, dtype=complex) for z in raw]
    risky = np.zeros(raw[0].shape, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite values are marked below
        total = _sum_terms(
            f, zs, lambda b: _base_values(b, zs),
            lambda value_ratio, p: _array_power(*value_ratio, p, risky),
        )
        total = np.array(np.broadcast_to(total, risky.shape), dtype=complex)
        # near overflow a value may be finite on one path only
        risky |= ~(np.abs(total) < 1e300)
    if risky.any():
        coords = [z.ravel() for z in raw]
        for i in np.flatnonzero(risky):
            total.flat[i] = evaluate(f, tuple(z[i].item() for z in coords))
    return total


# ---------------------------------------------------------------------------
# equality


def _require_exact(f: HoloSum):
    for t in f.terms:
        if exactify(t.coefficient) is None:
            raise ExactnessError(f"coefficient {t.coefficient!r} is not exact")
        for _, p in t.bases:
            if not isinstance(p, Fraction):
                raise ExactnessError(f"exponent {p!r} is not exact")


def _sparse_product(p: dict, q) -> dict:
    """Product of two sparse polynomials with Gaussian-integer coefficients,
    `p` an exponent->(re, im) dict and `q` its (exponent, re, im) triples;
    zero sums are kept."""
    out: dict = {}
    add = operator.add
    for e1, (a1, b1) in p.items():
        for e2, a2, b2 in q:
            e = tuple(map(add, e1, e2))
            re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            prev = out.get(e)
            out[e] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return out


@functools.lru_cache(maxsize=128)
def _expand_base_power(b: BasePoly, n: int) -> tuple:
    """b**n (n >= 0) as (den, ((exponent, re, im), ...)): its nonzero entries
    as Gaussian integers over den = D**n, D the lcm of b's entry denominators.

    Memoized per (base, n) in an LRU of 128 entries; a base hashes by its
    precomputed key, and the result is a tuple, so a shared entry cannot be
    mutated by a caller."""
    d = math.lcm(*(c._d for _, c in b.entries))
    entries = [(e, c._a * (d // c._d), c._b * (d // c._d)) for e, c in b.entries]
    acc = {(0,) * b.arity: (1, 0)}
    for _ in range(n):
        acc = {k: v for k, v in _sparse_product(acc, entries).items() if v[0] or v[1]}
    return d**n, tuple((k, re, im) for k, (re, im) in acc.items())


def canonical_form(f: HoloSum) -> dict:
    """Canonical dict of an exact sum; empty dict iff f is identically zero
    off the union of base zero sets.

    Within each base, exponents in the same integer-difference class are
    rewritten over the minimal one (terms lacking the base join the integer
    class at exponent zero when the class minimum is negative), and the
    integer surplus is expanded into monomials.  Each term expands in
    Gaussian integers over one denominator; the terms of one signature are
    summed over their common denominator, so each output coefficient costs
    one gcd.
    """
    _require_exact(f)
    classes, rows = _class_split(f)
    # each class's least numerator; integer classes start at zero, so that a
    # sum of purely positive powers expands completely
    lows = []
    for (_, d), col in zip(classes, zip(*(nums for *_, nums in rows))):
        present = [n for n in col if n]
        lows.append(min(present + [0]) if d == 1 else min(present))
    floors = [(b, Fraction(low, d)) for (b, d), low in zip(classes, lows)]

    out: dict = {}  # sig -> [den, {monomial: [re, im]}]: sig hashed once per term
    for c, mono, nums in rows:
        present = {classes[j][0] for j, n in enumerate(nums) if n}
        residual = []
        expanders = []
        for j, n in enumerate(nums):
            b, d = classes[j]
            low = lows[j]
            # an integer class with a negative minimum also pulls in the
            # terms that lack its base
            if n or (d == 1 and low < 0 and b not in present):
                if low:
                    residual.append(floors[j])
                if n > low:
                    expanders.append((b, (n - low) // d))
        # the classes come in base order, one per base in a term
        sig = tuple(residual)
        c = exactify(c)
        den, pieces = c._d, {mono: (c._a, c._b)}
        for b, k in expanders:
            d, entries = _expand_base_power(b, k)
            pieces = _sparse_product(pieces, entries)
            den *= d
        # the signature's sum is kept over the lcm of its terms' denominators
        common = out.get(sig)
        if common is None:
            common = out[sig] = [den, {}]
        elif common[0] % den:
            lcm = math.lcm(common[0], den)
            s = lcm // common[0]
            for v in common[1].values():
                v[0] *= s
                v[1] *= s
            common[0] = lcm
        s = common[0] // den
        acc = common[1]
        for m, (re, im) in pieces.items():
            prev = acc.get(m)
            if prev is None:
                acc[m] = [re * s, im * s]
            else:
                prev[0] += re * s
                prev[1] += im * s
    return {(m, sig): _make(re, im, den)
            for sig, (den, acc) in out.items() for m, (re, im) in acc.items() if re or im}


_SAMPLE_SEED = 20260822


def default_tube_points(arity: int, count: int = 20, rng=None) -> list:
    """Pseudo-random points with each coordinate in a safe tube strip, drawn
    from `rng` or, by default, from a fresh generator with a fixed seed."""
    if rng is None:
        rng = random.Random(_SAMPLE_SEED)
    return [
        tuple(
            complex(rng.uniform(-0.7, 0.7), rng.uniform(0.4, 1.6))
            for _ in range(arity)
        )
        for _ in range(count)
    ]


def equal(
    f: HoloSum,
    g: HoloSum,
    mode: str = "exact",
    tol: float = 1e-9,
    points=None,
) -> bool:
    """Decide f == g either exactly or by sampling.

    Exact mode requires rational data and canonicalizes the difference.
    Sampled mode evaluates both sides at 20 fixed-seed tube points (or the
    points provided) and compares relative deviation against tol, skipping
    points where both sides are below 1e-14.  Each side is evaluated once,
    on one array per coordinate; when either array call raises, the points
    are taken one at a time in order, so a mismatch returns False before a
    later point raises.
    """
    if f.arity != g.arity:
        raise DomainError("arity mismatch in equal")
    if mode == "exact":
        # guard the inputs, not just the difference: f - f cancels floats
        _require_exact(f)
        _require_exact(g)
        return not canonical_form(sub(f, g))
    if mode != "sampled":
        raise DomainError(f"unknown equality mode {mode!r}")
    pts = list(points) if points is not None else default_tube_points(f.arity)
    try:
        grid = np.array(pts, dtype=complex)
        if grid.ndim != 2:
            raise ValueError("not a list of points")
        fv = evaluate(f, tuple(grid.T))
        gv = evaluate(g, tuple(grid.T))
    except Exception:
        return _equal_each_point(f, g, tol, pts)
    scale_ = np.maximum(np.abs(fv), np.abs(gv))
    kept = scale_ >= 1e-14
    return not (np.abs(fv - gv)[kept] / scale_[kept] > tol).any()


def _equal_each_point(f: HoloSum, g: HoloSum, tol: float, pts) -> bool:
    """Sampled equality one point at a time, stopping at the first mismatch."""
    for pt in pts:
        fv = evaluate(f, pt)
        gv = evaluate(g, pt)
        scale_ = max(abs(fv), abs(gv))
        if scale_ < 1e-14:
            continue
        if abs(fv - gv) / scale_ > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# sl2 actions


def sl2_action(generator: str, weights, f: HoloSum) -> HoloSum:
    """Sum over the variables z_k of the one-variable action with weight
    weights[k]: H acts by -lam - 2 z d/dz, X by -d/dz, Y by lam z + z^2 d/dz.
    On two variables this is the diagonal tensor-product action; weights may
    be exact or complex.  The action is one `apply_operator` table: H takes
    its scalar parts as one row after the derivative rows, Y its scalar rows
    first; that order fixes how float coefficients round."""
    if generator not in ("H", "X", "Y"):
        raise DomainError(f"unknown sl2 generator {generator!r}")
    n = f.arity
    if not isinstance(weights, (tuple, list)) or len(weights) != n:
        raise DomainError(f"need one weight per variable of a {n}-variable sum, got {weights!r}")
    e = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if generator == "H":
        rows = [(e[k], -2, e[k]) for k in range(n)] + [((0,) * n, -sum(weights))]
    elif generator == "X":
        rows = [(e[k], -1) for k in range(n)]
    else:
        rows = [((0,) * n, lam, e[k]) for k, lam in enumerate(weights)]
        rows += [(ek, 1, tuple(2 * x for x in ek)) for ek in e]
    return apply_operator(f, rows)


def sl2_casimir(weights, f: HoloSum) -> HoloSum:
    """(H^2 + 2XY + 2YX)/8 of the action `sl2_action` gives, normalized
    once; the scalar lam(lam-2)/8 on one-variable sums.  XY and YX come
    first, so float sums group as H^2 + (2XY + 2YX)."""
    h2 = sl2_action("H", weights, sl2_action("H", weights, f))
    xy = sl2_action("X", weights, sl2_action("Y", weights, f))
    yx = sl2_action("Y", weights, sl2_action("X", weights, f))
    return combine(
        f.arity, [(Fraction(1, 4), xy), (Fraction(1, 4), yx), (Fraction(1, 8), h2)]
    )


# ---------------------------------------------------------------------------
# textual format


def _scalar_text(c) -> str:
    e = exactify(c)
    if e is not None:
        if e.im == 0:
            return str(e.re)
        return f"(c {e.re} {e.im})"
    z = complex(c)
    if z.imag == 0.0:
        return _float_text(z.real)
    return f"(c {_float_text(z.real)} {_float_text(z.imag)})"


def _float_text(x: float) -> str:
    s = repr(float(x))
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def _exp_text(p) -> str:
    if isinstance(p, Fraction):
        return str(p)
    return _scalar_text(p)


def to_text(f: HoloSum) -> str:
    parts = [f"(sum {f.arity}"]
    for t in f.terms:
        bits = [f"  (term {_scalar_text(t.coefficient)}"]
        bits.append("(mono " + " ".join(str(m) for m in t.monomial) + ")")
        for b, p in t.bases:
            bent = " ".join(
                "((" + " ".join(str(k) for k in e) + ") " + _scalar_text(c) + ")"
                for e, c in b.entries
            )
            bits.append(f"(pow (base {bent}) {_exp_text(p)})")
        parts.append(" ".join(bits) + ")")
    parts.append(")")
    return "\n".join(parts)


_TOKEN = re.compile(r"[()]|[^\s()]+")


class _Tokens:
    def __init__(self, text: str):
        matches = list(_TOKEN.finditer(text))
        self.toks = [m.group() for m in matches]
        self.offsets = [m.start() for m in matches]
        self.pos = 0

    def last_offset(self) -> int:
        """Character offset of the last token taken (0 for empty text)."""
        return self.offsets[self.pos - 1] if self.pos else 0

    def peek(self):
        if self.pos >= len(self.toks):
            raise ValueError("unexpected end of input")
        return self.toks[self.pos]

    def take(self, expect=None):
        tok = self.peek()
        self.pos += 1
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.toks)


def _parse_number(tok: str):
    if "." in tok or "e" in tok or "E" in tok:
        return float(tok)
    return Fraction(tok)


def _parse_scalar(ts: _Tokens):
    if ts.peek() == "(":
        ts.take("(")
        ts.take("c")
        re = _parse_number(ts.take())
        im = _parse_number(ts.take())
        ts.take(")")
        if isinstance(re, Fraction) and isinstance(im, Fraction):
            return QQi(re, im)
        return complex(float(re), float(im))
    return _parse_number(ts.take())


def _parse_exponent(ts: _Tokens):
    v = _parse_scalar(ts)
    if isinstance(v, QQi):
        if v.im == 0:
            return v.re
        return complex(v)
    if isinstance(v, Fraction):
        return v
    return complex(v).real if complex(v).imag == 0 else complex(v)


def from_text(text: str) -> HoloSum:
    """Parse the s-expression format produced by to_text.

    Any failure raises ParseError; its `pos` is the character offset of the
    last token taken.
    """
    ts = _Tokens(text)
    try:
        return _parse_sum(ts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(str(exc), ts.last_offset()) from exc


def _parse_sum(ts: _Tokens) -> HoloSum:
    ts.take("(")
    ts.take("sum")
    arity = int(ts.take())
    terms = []
    while ts.peek() != ")":
        ts.take("(")
        ts.take("term")
        coeff = _parse_scalar(ts)
        ts.take("(")
        ts.take("mono")
        mono = []
        while ts.peek() != ")":
            mono.append(int(ts.take()))
        ts.take(")")
        bases = []
        while ts.peek() != ")":
            ts.take("(")
            ts.take("pow")
            ts.take("(")
            ts.take("base")
            entries = {}
            while ts.peek() != ")":
                ts.take("(")
                ts.take("(")
                e = []
                while ts.peek() != ")":
                    e.append(int(ts.take()))
                ts.take(")")
                c = _parse_scalar(ts)
                ts.take(")")
                entries[tuple(e)] = c
            ts.take(")")
            p = _parse_exponent(ts)
            ts.take(")")
            bases.append((base_poly(arity, entries), p))
        ts.take(")")
        terms.append(term(arity, coeff, tuple(mono), bases))
    ts.take(")")
    if not ts.done():
        raise ValueError("trailing tokens after sum")
    return holo_sum(arity, terms)
