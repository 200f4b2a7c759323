"""Verification-suite runner and expression evaluator for the transform stack.

Two subcommands:

  verify <suite>   run one named identity suite over a parameter grid and
                   emit one JSON record per case plus a summary object
  eval <expr>      print a named constant, a named transform value, or a
                   textual sum evaluated at a point

Reports are JSON lines.  The summary object carries a sha256 content hash
computed after stripping wall-time fields, so identical configurations and
seeds hash identically on repeat runs.  Exit status is 0 when every case
passes, 1 when any case fails, 2 for configuration and usage errors.

Rational parameters written as "p/q" switch the run to exact mode; decimal
entries keep it in float mode.  Closed-form against closed-form checks use
a fixed tight tolerance; quadrature against closed-form checks use the
configurable one.

A suite is one builder decorated with _suite, and in that builder one case
function per family, taking the grid values as arguments and returning a
CaseResult, plus one _family line that names the family and declares its
axes through _grid.
"""

from __future__ import annotations

import argparse
import cmath
import csv as csv_mod
import hashlib
import io
import itertools
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .special_poly import (
    DomainError,
    PoleError,
    gegenbauer_norm_sq,
    gegenbauer_poly,
    jacobi_norm_sq,
    jacobi_poly,
    pochhammer,
)
from .quadrature import build_rule, integrate
from .term_algebra import (
    BranchCutError,
    ExactnessError,
    ParseError,
    QQi,
    base_poly,
    default_tube_points,
    equal,
    evaluate,
    from_text,
    holo_sum,
    monomial,
    qqi,
    scale,
    term,
)
from .rc_transform import (
    RC_ROUTES,
    RCParams,
    b_const,
    c_ell,
    c_ell_status,
    casimir_P,
    ktype_generator,
    log_b_const,
    log_r_ell,
    psi_ktype_closed_form,
    r_ell,
    rc_apply,
    zero_classification,
)
from .l2_model import fourier_laplace, halfplane_norm_sq, l2fn, phi_apply, weighted_norm_sq
from .juhl import (
    JuhlParams,
    adjoint_constant,
    bernstein_sato_verify,
    cone_b_const,
    cone_c_ell,
    cone_r_ell,
    kernel_normalization,
    phi_isometry_ratio,
    q_constant,
)


class ConfigError(ValueError):
    """Bad command line, config file, or parameter grid."""


# tolerance for checks that compare two closed forms with no quadrature
CLOSED_FORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter parsing

_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_value(text: str):
    """One grid entry: "p/q" and integer strings stay exact Fractions,
    anything with a decimal point or exponent becomes a float.  Non-finite
    numbers (inf, nan, or a literal too large for a float) are rejected."""
    t = text.strip()
    if not t:
        raise ConfigError("empty parameter value")
    if "/" in t or _INT_RE.match(t):
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read number {text!r}") from exc
    try:
        x = float(t)
    except ValueError as exc:
        raise ConfigError(f"cannot read number {text!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"number {text!r} is not finite")
    return x


def parse_grid(text: str, key: str) -> tuple:
    values = tuple(parse_value(p) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError(f"empty parameter grid for {key}")
    # a value given twice, as 2 and 4/2 or 2 and 2.0, would be two cases of one point
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{key} grid repeats the value {value}")
    return values


def _parse_dims(text: str, key: str) -> tuple:
    ns = []
    for v in parse_grid(text, key):
        if not (isinstance(v, Fraction) and v.denominator == 1):
            raise ConfigError(f"dimension grid needs integers, got {v}")
        ns.append(int(v))
    return tuple(ns)


def _parse_bool(text: str, key: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot read boolean {text!r} for {key}")


def _parse_with(cast):
    def parse(text: str, key: str):
        try:
            return cast(text)
        except ValueError as exc:
            raise ConfigError(f"cannot read {key}={text!r}") from exc

    return parse


# config-file key -> (SuiteConfig field, reader, help).  The flag is the key
# with dashes ("ell_max" -> "--ell-max").  A flag and a file line go through
# the same reader, (text, key) -> value, and the flag wins; _parse_bool makes
# a flag without a value.  An unset option keeps its SUITE_DEFAULTS entry or
# its SuiteConfig default.
VERIFY_OPTIONS = {
    "lambda1": ("lam1", parse_grid, "comma-separated weight grid"),
    "lambda2": ("lam2", parse_grid, "comma-separated weight grid"),
    "lambda": ("lam", parse_grid, "comma-separated weight grid"),
    "n": ("n", _parse_dims, "comma-separated dimension grid"),
    "ell_max": ("ell_max", _parse_with(int), None),
    "tol": ("tol", _parse_with(float), None),
    "exact": ("exact", _parse_bool, "force exact rational comparisons"),
    "seed": ("seed", _parse_with(int), None),
    "report": ("report_path", lambda text, key: text, "write the JSON-lines report here"),
    "csv": ("csv_out", _parse_bool, "also write a CSV table beside the report"),
}
# the fields every suite accepts, beside those it declares: the runner and the report read them
_RUN_WIDE = ("exact", "seed", "report_path", "csv_out")


def read_config_file(path: str) -> dict:
    """key=value lines, # comments, keys matching the verify flags."""
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in VERIFY_OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# suite configuration


def _require_positive_finite(value: float, name: str) -> None:
    """A value at or below zero, -inf included, is a sign problem; nan and
    inf are not finite."""
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SuiteConfig:
    """Everything one suite run depends on; constructed once, then read-only."""

    suite: str
    ell_max: int
    exact: bool
    tol: float = CLOSED_FORM_TOL  # read only by a suite that declares tol
    lam1: tuple = ()
    lam2: tuple = ()
    lam: tuple = ()
    n: tuple = ()
    seed: int = 414213
    report_path: str = ""
    csv_out: bool = False

    def __post_init__(self):
        if self.suite not in SUITE_DEFAULTS:
            raise ConfigError(
                f"unknown suite {self.suite!r}; choices: {', '.join(SUITES)}"
            )
        _require_positive_finite(self.tol, "tolerance")
        if self.ell_max < 0:
            raise ConfigError(f"ell-max must be nonnegative, got {self.ell_max}")

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"

    def need(self, grid: str) -> tuple:
        values = getattr(self, grid)
        if not values:
            raise ConfigError(f"suite {self.suite} needs a nonempty {grid} grid")
        return values


# ---------------------------------------------------------------------------
# case records

class CaseResult(NamedTuple):
    computed: object
    reference: object
    abs_err: object
    rel_err: object
    passed: bool
    note: str = ""


class Case(NamedTuple):
    key: str
    params: dict
    fragments: tuple  # '"name": <json>' of each param, in sorted-name order
    run: object  # (*args) -> CaseResult
    args: tuple = ()


# json.dumps(value, sort_keys=True) without building an encoder per call
_sorted_json = json.JSONEncoder(sort_keys=True).encode
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the scalars of a record, written as json writes them; x - x is 0 for a finite x
_SCALAR_JSON = {
    type(None): lambda v: "null", bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__, str: json.encoder.encode_basestring_ascii,
    float: lambda x: float.__repr__(x) if x - x == 0 else _NONFINITE[float.__repr__(x)],
}


def _json(value) -> str:
    """json.dumps(value, sort_keys=True): scalars directly, anything else,
    errors included, through the json encoder."""
    return _SCALAR_JSON.get(type(value), _sorted_json)(value)


def _fragment(name: str, value) -> str:
    return f"{_json(name)}: {_json(value)}"


def _record_text(r: dict, params: str) -> str:
    """json.dumps(r, sort_keys=True) for a record without ms, written in the
    schema's key order; `params` is the text of r["params"]."""
    note = f'"note": {_json(r["note"])}, ' if "note" in r else ""
    return (f'{{"abs_err": {_json(r["abs_err"])}, "case": {_json(r["case"])}, '
            f'"computed": {_json(r["computed"])}, {note}"params": {params}, '
            f'"pass": {_json(r["pass"])}, "reference": {_json(r["reference"])}, '
            f'"rel_err": {_json(r["rel_err"])}, "suite": {_json(r["suite"])}}}')


def _stream_line(text: str, ms: float) -> str:
    """A record's stream line: its hashed text with the finite `ms` appended
    last, as json.dumps writes it."""
    return f'{text[:-1]}, "ms": {ms!r}}}'


@dataclass
class VerificationReport:
    """Records of one run and a running sha256 of their hashed form.

    The hash covers exactly the bytes of
    json.dumps({"suite", "mode", "seed", "records": <records without ms>},
    sort_keys=True).  One writer, `_record_text`, emits every record line,
    byte-equal to that formula: `add` writes each record once, and that text
    feeds both the digest and the record's stream line."""

    suite: str
    mode: str
    seed: int
    records: list = field(default_factory=list, init=False)
    elapsed_ms: float = 0.0

    def __post_init__(self):
        opened = json.dumps(
            {"suite": self.suite, "mode": self.mode, "seed": self.seed, "records": []},
            sort_keys=True,
        )
        head, mark, self._footer = opened.partition('"records": [')
        self._digest = hashlib.sha256((head + mark).encode())

    def add(self, record: dict, params: str, ms: float) -> str:
        """Append a record given without `ms`, its params written `params`; return its line."""
        text = _record_text(record, params)
        self._digest.update(((", " if self.records else "") + text).encode())
        record["ms"] = ms
        self.records.append(record)
        return _stream_line(text, ms)

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.records if r["pass"])

    @property
    def failed_count(self) -> int:
        return len(self.records) - self.passed_count

    def content_hash(self) -> str:
        digest = self._digest.copy()
        digest.update(self._footer.encode())
        return digest.hexdigest()

    def summary(self) -> dict:
        return {
            "summary": True,
            "suite": self.suite,
            "mode": self.mode,
            "seed": self.seed,
            "cases": len(self.records),
            "passed": self.passed_count,
            "failed": self.failed_count,
            "hash": self.content_hash(),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_jsonl(self) -> str:
        lines = [
            _stream_line(_record_text(r, _json(r["params"])), r["ms"])
            for r in self.records
        ]
        lines.append(json.dumps(self.summary()))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv_mod.writer(buf)
        writer.writerow(
            ["suite", "case", "params", "computed", "reference",
             "abs_err", "rel_err", "pass", "ms", "note"]
        )
        for r in self.records:
            writer.writerow(
                [r["suite"], r["case"], json.dumps(r["params"]),
                 json.dumps(r["computed"]), json.dumps(r["reference"]),
                 r["abs_err"], r["rel_err"], r["pass"], r["ms"],
                 r.get("note", "")]
            )
        return buf.getvalue()


def _encode(value):
    """JSON-safe rendering: exact scalars become strings, complex values
    become {"re", "im"} objects, so the two verification tiers stay visible
    in the report."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QQi):
        if value.im == 0:
            return str(value.re)
        return {"re": str(value.re), "im": str(value.im)}
    if isinstance(value, complex):
        if value.imag == 0.0:
            return value.real
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"no record encoding for {type(value).__name__}")


def _slug(value) -> str:
    if isinstance(value, (Fraction, int)):
        return str(value)
    return repr(float(value))


def _close(computed, reference, tol, note="") -> CaseResult:
    """Residual comparison with an absolute fallback near zero: pass when
    |computed - reference| <= tol * max(1, |computed|, |reference|)."""
    a = complex(computed)
    b = complex(reference)
    abs_err = abs(a - b)
    span = max(abs(a), abs(b))
    rel_err = abs_err / span if span > 0 else 0.0
    passed = abs_err <= tol * max(1.0, span)
    return CaseResult(_encode(computed), _encode(reference), abs_err, rel_err, passed, note)


def _close_logs(computed, reference, tol) -> CaseResult:
    """Comparison of two values given as (sign, log|value|), for values past
    the double range: pass when the signs agree and the logs differ by at
    most tol, a relative error of about tol.  The record holds the logs, its
    abs_err their difference, and its note the signs."""
    (s, a), (t, b) = computed, reference
    err = abs(a - b)
    note = f"compared as logs of |value|; signs {s:+g} and {t:+g}"
    return CaseResult(_encode(a), _encode(b), err, None, s == t and err <= tol, note)


def _exact_eq(computed, reference, note="") -> CaseResult:
    diff = computed - reference
    passed = not diff
    abs_err = 0.0 if passed else abs(complex(diff))
    return CaseResult(_encode(computed), _encode(reference), abs_err, None, passed, note)


def _bool_case(computed, reference, note="") -> CaseResult:
    return CaseResult(bool(computed), bool(reference), None, None,
                      bool(computed) == bool(reference), note)


def _reported(computed, note) -> CaseResult:
    return CaseResult(_encode(computed), None, None, None, True, note)


# ---------------------------------------------------------------------------
# case grids


def _grid(cfg: SuiteConfig, *axes):
    """Yield (tag, params, fragments, values) for each point of the product
    of the axes.

    An axis is a SuiteConfig grid name ("lam1", "lam2", "lam", "n"), "ell"
    for 0..ell_max, or a tuple (name, values) or (name, values, slug, param).
    An entry v reads name=slug(v) in the tag and name: param(v) in the params,
    and its fragment, '"name": <JSON of param(v)>', is written once, here;
    by default slug is _slug (two digits for ell) and param is _encode.
    `fragments` holds the point's fragments in sorted-name order, `values`
    its entries in axis order.  Every n entry must be at least 3."""
    names, rendered = [], []
    for axis in axes:
        if isinstance(axis, str):
            axis = (axis, range(cfg.ell_max + 1) if axis == "ell" else cfg.need(axis))
        name, values, *forms = axis
        slug, param = forms or ("{:02d}".format if name == "ell" else _slug, _encode)
        if name == "n" and min(values, default=3) < 3:
            raise ConfigError(f"{cfg.suite} needs dimensions n >= 3, got {min(values)}")
        names.append(name)
        shown = [(v, param(v)) for v in values]
        rendered.append([(v, f"{name}={slug(v)}", p, _fragment(name, p)) for v, p in shown])
    # the fragments in sorted-name order; one index alone would pick a str
    order = sorted(range(len(names)), key=names.__getitem__)
    in_order = itemgetter(*order) if len(order) > 1 else tuple
    for point in itertools.product(*rendered):
        values, tags, params, fragments = zip(*point)
        yield "/".join(tags), dict(zip(names, params)), in_order(fragments), values


def _family(name: str, grid, check) -> Iterator[Case]:
    return (Case(f"{name}/{tag}", params, fragments, check, values)
            for tag, params, fragments, values in grid)


def _case(key: str, params: dict, run) -> Case:
    """A case whose params are given, not drawn from a grid."""
    return Case(key, params, tuple(_fragment(k, params[k]) for k in sorted(params)), run)


# ---------------------------------------------------------------------------
# suite builders


# suite name -> its SuiteConfig keyword defaults, and -> its builder; filled by _suite
SUITE_DEFAULTS: dict = {}
_SUITE_BUILDERS: dict = {}


def _suite(name: str, **defaults):
    """Register the decorated builder, (cfg, rng) -> its cases, as suite `name`
    with `defaults`, its SuiteConfig keywords: the grids, ell_max and tol it
    reads, and nothing else; `verify` refuses any other option but `_RUN_WIDE`."""
    def register(build):
        SUITE_DEFAULTS[name] = defaults
        _SUITE_BUILDERS[name] = build
        return build

    return register


# the Rankin-Cohen weight pair of rc-identities, rc-plancherel and l2-plancherel
_RC_WEIGHTS = {"lam1": (Fraction(2), Fraction(5, 2)), "lam2": (Fraction(2), Fraction(3))}


def _squared(poly):
    """Array integrand poly(x)^2, by Horner's rule in float arithmetic."""
    poly = poly.as_float()

    def square(x):
        out = poly(x)
        return out * out

    return square


@_suite("ortho-poly", lam1=(Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2)),
        lam2=(Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2)), ell_max=6, tol=1e-10)
def _build_ortho_poly(cfg: SuiteConfig, rng) -> Iterator[Case]:
    # ell_max + 1 nodes integrate every P_ell^2 of the run exactly: one rule per pair
    rule = lru_cache(maxsize=None)(lambda a, b: build_rule(("jacobi", a, b), cfg.ell_max + 1))

    def jacobi_norm(a, b, ell):
        if a <= -1 or b <= -1:
            return _reported(None, "outside the Jacobi range (alpha or beta <= -1), not checked")
        quad = integrate(_squared(jacobi_poly(ell, a, b)), rule(float(a), float(b)))
        return _close(quad, complex(jacobi_norm_sq(ell, a, b)).real, cfg.tol)

    def gegenbauer_norm(a, ell):
        if a <= -0.5:
            return _reported(None, "outside the Gegenbauer range (alpha <= -1/2), not checked")
        quad = integrate(_squared(gegenbauer_poly(ell, a)), rule(float(a) - 0.5, float(a) - 0.5))
        return _close(quad, complex(gegenbauer_norm_sq(ell, a)).real, cfg.tol)

    alphas = [v - 1 for v in cfg.need("lam1")]
    betas = [v - 1 for v in cfg.need("lam2")]
    yield from _family("jacobi-norm", _grid(cfg, ("alpha", alphas), ("beta", betas), "ell"),
                       jacobi_norm)
    yield from _family("gegenbauer-norm", _grid(cfg, ("alpha", alphas), "ell"), gegenbauer_norm)


def _rc_library() -> list:
    """Small fixed family of exact two-variable inputs for route checks."""
    shifted = base_poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): qqi(2, 1)})
    return [
        ("cross-monomial", monomial(2, (2, 1), Fraction(3))),
        ("mixed-monomials",
         holo_sum(2, [*monomial(2, (1, 3), Fraction(1, 2)).terms,
                      *monomial(2, (4, 0), Fraction(-2)).terms])),
        ("shifted-power", holo_sum(2, [term(2, 1, (1, 0), [(shifted, Fraction(-3))])])),
    ]


@_suite("rc-identities", **_RC_WEIGHTS, ell_max=4, tol=1e-9)
def _build_rc_identities(cfg: SuiteConfig, rng) -> Iterator[Case]:
    pts2 = default_tube_points(2, 12, rng)
    pts1 = default_tube_points(1, 12, rng)

    def same(a, b, pts):
        return equal(a, b) if cfg.exact else equal(a, b, "sampled", cfg.tol, pts)

    def rc_routes(f, l1, l2, ell):
        p = RCParams(l1, l2, ell)
        ref = rc_apply(p, f, RC_ROUTES[0])
        for route in RC_ROUTES[1:]:
            if not same(ref, rc_apply(p, f, route), pts1):
                return _bool_case(False, True, f"route {route} differs")
        return _bool_case(True, True)

    def casimir_eigen(l1, l2, ell):
        g = ktype_generator(RCParams(l1, l2, ell))
        shift = ell * (l1 + l2 + ell - 1)
        return _bool_case(same(casimir_P(l1, l2, g), scale(g, -shift), pts2), True)

    def ktype_composition(l1, l2, ell):
        p = RCParams(l1, l2, ell)
        got = rc_apply(p, ktype_generator(p))
        coeff = pochhammer(l1 + l2 + ell - 1, ell)
        zi = base_poly(1, {(1,): 1, (0,): qqi(0, 1)})
        want = holo_sum(1, [term(1, coeff, (0,), [(zi, -p.lam3)])])
        return _bool_case(same(got, want, pts1), True)

    for name, f in _rc_library():
        yield from _family(f"rc-routes/{name}", _grid(cfg, "lam1", "lam2", "ell"),
                           partial(rc_routes, f))
    yield from _family("casimir-eigen", _grid(cfg, "lam1", "lam2", "ell"), casimir_eigen)
    yield from _family("ktype-composition", _grid(cfg, "lam1", "lam2", "ell"), ktype_composition)


@_suite("rc-plancherel", **_RC_WEIGHTS, ell_max=2, tol=1e-7)
def _build_rc_plancherel(cfg: SuiteConfig, rng) -> Iterator[Case]:
    def lift_isometry(l1, l2, ell):
        p = RCParams(l1, l2, ell)
        lam3 = float(p.lam3)
        h = l2fn(lambda z: z ** (lam3 - 1) * math.exp(-z), p.lam3)
        ratio = weighted_norm_sq(phi_apply(p, h)) / weighted_norm_sq(h)
        return _close(ratio, float(c_ell(l1, l2, ell)), cfg.tol)

    yield from _family("lift-isometry", _grid(cfg, "lam1", "lam2", "ell"), lift_isometry)


@_suite("l2-plancherel", **_RC_WEIGHTS, lam=(Fraction(3), Fraction(4)), ell_max=2, tol=1e-3)
def _build_l2_plancherel(cfg: SuiteConfig, rng) -> Iterator[Case]:
    probes = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.2)) for _ in range(3)]

    def transform_image(lam, probe):
        if lam <= 0:
            return _reported(None, "outside the transform's domain (lam <= 0), not checked")
        lamf = float(lam)
        F = l2fn(lambda z: z ** (lamf - 1) * math.exp(-z), lamf)
        want = math.gamma(lamf) * (1 - 1j * probe) ** (-lamf)
        return _close(fourier_laplace(F, probe), want, 1e-8)

    def fourier_isometry(lam):
        if lam <= 1:
            return _reported(None, "outside the weighted Bergman range (lam <= 1), not checked")
        lamf = float(lam)
        gamma = math.gamma(lamf)

        def G(zeta):
            return gamma * (1 - 1j * zeta) ** (-lamf)

        num = halfplane_norm_sq(G, lamf)
        return _close(num / (gamma / 2**lamf), b_const(lamf), cfg.tol)

    b_input = lru_cache(maxsize=None, typed=True)(b_const)  # once per grid weight
    # b's poles are the integers <= 1, and lam3 > 2 when lam1, lam2 > 1
    near_poles = any(lam <= 1 for lam in cfg.lam1 + cfg.lam2)

    def b_ratio(l1, l2, ell):
        lam3 = l1 + l2 + 2 * ell
        if near_poles and any(lam <= 1 and lam == math.floor(lam) for lam in (l1, l2, lam3)):
            return _reported(None, "lam1, lam2 or lam3 is a pole of b, not checked")
        try:
            got = r_ell(l1, l2, ell) * b_input(l1) * b_input(l2)
            want = b_const(lam3)
            if math.isfinite(abs(got)) and math.isfinite(abs(want)):
                return _close(got, want, CLOSED_FORM_TOL)
        except OverflowError:
            pass
        # past the double range: both sides as (sign, log|value|)
        factors = [log_r_ell(l1, l2, ell), log_b_const(l1), log_b_const(l2)]
        got = math.prod(s for s, _ in factors), math.fsum(x for _, x in factors)
        return _close_logs(got, log_b_const(lam3), CLOSED_FORM_TOL)

    # a probe reads by its index in the tag and by its value in the params
    yield from _family("transform-image",
                       _grid(cfg, "lam", ("probe", probes, probes.index, _encode)),
                       transform_image)
    yield from _family("fourier-isometry", _grid(cfg, "lam"), fourier_isometry)
    yield from _family("b-ratio", _grid(cfg, "lam1", "lam2", "ell"), b_ratio)


@_suite("bernstein-sato", lam=(Fraction(2), Fraction(7, 2), Fraction(4)), n=(3, 4, 5),
        ell_max=4)
def _build_bernstein_sato(cfg: SuiteConfig, rng) -> Iterator[Case]:
    if not all(isinstance(lam, Fraction) for lam in cfg.need("lam")):
        raise ConfigError("bernstein-sato needs rational weights; write 7/2, not 3.5")

    def eigen_constant(n, lam, ell):
        q0, higher = bernstein_sato_verify(JuhlParams(n, lam, ell))
        result = _exact_eq(q0, q_constant(n, ell, lam))
        if not higher:
            return result
        rungs = ", ".join(f"j={j}" for j, _ in higher)
        return result._replace(passed=False, note=f"nonzero higher rungs: {rungs}")

    yield from _family("eigen-constant", _grid(cfg, "n", "lam", "ell"), eigen_constant)


def _cone_probe(dim: int) -> tuple:
    """`dim` coordinates of one interior cone point; the tail's squares sum below 0.005."""
    tail = tuple(0.05 * (-1) ** k / (k + 1) for k in range(dim))
    return ((1.5, 0.4, 0.2, 0.1, -0.15, 0.05) + tail)[:dim]


@_suite("juhl-plancherel", lam=(Fraction(3), Fraction(7, 2)), n=(3,), ell_max=2, tol=1e-7)
def _build_juhl_plancherel(cfg: SuiteConfig, rng) -> Iterator[Case]:
    def cone_isometry(n, lam, ell):
        if not float(lam) > n - 1:
            return _reported(None, "outside the unitary range (lam <= n - 1), not checked")
        p = JuhlParams(n, float(lam), ell)
        ratio = phi_isometry_ratio(p, lambda y: math.exp(-y[0]), _cone_probe(n - 1))
        return _close(ratio, cone_c_ell(p), cfg.tol)

    def transform_ratio(n, lam, ell):
        # no Gegenbauer norm enters, so alpha <= -1/2 is checked too
        lam = float(lam)
        try:
            r = cone_r_ell(JuhlParams(n, lam, ell))
            b_n, b_prev = cone_b_const(n, lam), cone_b_const(n - 1, lam + ell)
        except PoleError as exc:
            return _reported("pole", f"{exc}, reported only")
        return _close(r * b_n, b_prev, CLOSED_FORM_TOL)

    yield from _family("cone-isometry", _grid(cfg, "n", "lam", "ell"), cone_isometry)
    yield from _family("transform-ratio", _grid(cfg, "n", "lam", "ell"), transform_ratio)


def _signed(value) -> str:
    return f"{int(value):+03d}"


@_suite("kernels", lam1=tuple(Fraction(k) for k in range(-6, 7)),
        lam2=tuple(Fraction(k) for k in range(-6, 7)), lam=(Fraction(3), Fraction(7, 2)),
        n=(3, 4), ell_max=4)
def _build_kernels(cfg: SuiteConfig, rng) -> Iterator[Case]:
    for v in cfg.need("lam1") + cfg.need("lam2"):
        if not (isinstance(v, Fraction) and v.denominator == 1):
            raise ConfigError(f"kernels zero classification needs integer lam1/lam2, got {v}")
    ints1, ints2 = [int(v) for v in cfg.lam1], [int(v) for v in cfg.lam2]

    def zero_class(l1, l2, ell):
        predicted = zero_classification(l1, l2, l1 + l2 + 2 * ell)
        kind, _ = c_ell_status(l1, l2, ell)
        if kind in ("pole", "indeterminate"):
            return _reported(kind, f"{kind} collision, reported only")
        return _bool_case(predicted, kind == "zero")

    def adjoint_factorization(n, lam, ell):
        got = adjoint_constant(JuhlParams(n, float(lam), ell))
        want = (
            (-1) ** ell
            * kernel_normalization(n, float(lam)).conjugate()
            * complex(q_constant(n, ell, float(lam)))
        )
        return _close(got, want, CLOSED_FORM_TOL)

    yield _case("kernel-anchor/half-plane", {"n": 1, "lam": 1},
                lambda: _close(kernel_normalization(1, 1.0), -1.0 / math.pi, CLOSED_FORM_TOL))
    yield _case("kernel-anchor/rank-two", {"n": 2, "lam": 4},
                lambda: _close(kernel_normalization(2, 4.0), 576.0 / math.pi**2,
                               CLOSED_FORM_TOL))
    yield from _family("zero-class", _grid(cfg, ("lam1", ints1, _signed, int),
                                           ("lam2", ints2, _signed, int), "ell"), zero_class)
    yield from _family("adjoint-factorization",
                       _grid(cfg, "n", "lam", ("ell", range(min(cfg.ell_max, 2) + 1))),
                       adjoint_factorization)


SUITES = tuple(sorted(SUITE_DEFAULTS))


# ---------------------------------------------------------------------------
# suite runner


def run_suite(config: SuiteConfig, stream=None) -> VerificationReport:
    """Run one suite: build the case grid, execute in sorted key order,
    collect one record per case.  A per-case exception becomes a failed
    record rather than aborting the run."""
    rng = random.Random(config.seed)
    cases = list(_SUITE_BUILDERS[config.suite](config, rng))
    if not cases:
        raise ConfigError(f"suite {config.suite} produced an empty case grid")
    keys = [c.key for c in cases]
    if len(set(keys)) != len(keys):
        raise ConfigError("internal: duplicate case keys")

    report = VerificationReport(config.suite, config.mode, config.seed)
    t_start = time.perf_counter()
    for key, params, fragments, run, args in sorted(cases, key=lambda c: c.key):
        t0 = time.perf_counter()
        try:
            result = run(*args)
        except Exception as exc:  # a broken case must not hide the rest
            result = CaseResult(None, None, None, None, False,
                                f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - t0) * 1000.0
        computed, reference, abs_err, rel_err, passed, note = result
        record = {"suite": config.suite, "case": key, "params": params, "computed": computed,
                  "reference": reference, "abs_err": abs_err, "rel_err": rel_err,
                  "pass": passed}
        if note:
            record["note"] = note
        line = report.add(record, "{" + ", ".join(fragments) + "}", round(ms, 3))
        if stream is not None:
            stream.write(line + "\n")
            stream.flush()
    report.elapsed_ms = (time.perf_counter() - t_start) * 1000.0
    return report


# ---------------------------------------------------------------------------
# verify command plumbing


def _resolve_config(args) -> SuiteConfig:
    file_vals = read_config_file(args.config) if args.config else {}
    reads = SUITE_DEFAULTS[args.suite]
    values = dict(reads, exact=False)
    slash = floats = False
    for key, (name, parse, _) in VERIFY_OPTIONS.items():
        text = getattr(args, key)
        if text is None:
            text = file_vals.get(key)
        if text is not None:
            if name not in reads and name not in _RUN_WIDE:
                raise ConfigError(f"suite {args.suite} does not read --{key.replace('_', '-')}")
            values[name] = parse(text, key)
            if parse in (parse_grid, _parse_dims):
                slash = slash or "/" in text
                floats = floats or any(isinstance(v, float) for v in values[name])
    # exact mode: --exact, the exact key, or a rational p/q in any grid
    values["exact"] = values["exact"] or slash
    if values["exact"] and floats:
        raise ConfigError("exact mode needs rational parameters; write 5/2 instead of 2.5")
    return SuiteConfig(suite=args.suite, **values)


def _csv_path(report_path: str) -> Path:
    p = Path(report_path)
    if p.suffix in (".json", ".jsonl", ".txt"):
        return p.with_suffix(".csv")
    return Path(str(p) + ".csv")


def _cmd_verify(args) -> int:
    config = _resolve_config(args)
    if config.csv_out and not config.report_path:
        raise ConfigError("--csv needs --report PATH to place the table beside")
    report = run_suite(config, stream=sys.stdout)
    print(json.dumps(report.summary()), flush=True)
    if config.report_path:
        out = Path(config.report_path)
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_jsonl())
        if config.csv_out:
            _csv_path(config.report_path).write_text(report.to_csv())
    return 0 if report.failed_count == 0 else 1


# ---------------------------------------------------------------------------
# eval command


def _point_scalar(tok: str) -> complex:
    """One coordinate of an evaluation point.  Non-finite numbers (inf, nan,
    or a literal too large for a float) are rejected, as in parse_value."""
    t = tok.strip()
    try:
        z = complex(float(Fraction(t))) if "/" in t else complex(t)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot read coordinate {tok!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"coordinate {tok!r} is not finite")
    return z


def _parse_point(text: str) -> tuple:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise ConfigError("empty evaluation point")
    return tuple(_point_scalar(p) for p in parts)


def _eval_int(what: str):
    def parse(tok: str) -> int:
        try:
            return int(tok)
        except ValueError as exc:
            raise ConfigError(f"{what} must be an integer, got {tok!r}") from exc

    return parse


# one eval argument: (name in the help, name in messages, reader)
_L1 = ("L1", "lam1", parse_value)
_L2 = ("L2", "lam2", parse_value)
_LAM = ("LAM", "lam", parse_value)
_ELL = ("ELL", "ell", _eval_int("ell"))
_RC = (_L1, _L2, _ELL)

# name -> (arguments, takes --at, value of the read arguments); a form that
# takes --at builds a two-variable sum and is evaluated at that point
_EVAL_FORMS = {
    "constant": ((("C", "one value", parse_value),), False, lambda c: c),
    "c_ell": (_RC, False, c_ell),
    "r_ell": (_RC, False, r_ell),
    "b": ((_LAM,), False, b_const),
    "b_const": ((_LAM,), False, b_const),
    "q_constant": ((("N", "n", _eval_int("n")), _ELL, _LAM), False, q_constant),
    "ktype": (_RC, True, lambda *a: ktype_generator(RCParams(*a))),
    "psi_ktype": (_RC, True, lambda *a: psi_ktype_closed_form(RCParams(*a))),
}

_EVAL_HELP = " | ".join(
    [" ".join([name, *(shown for shown, _, _ in args)]) + (" --at 'Z1 Z2'" if at else "")
     for name, (args, at, _) in _EVAL_FORMS.items()]
    + ["'(sum ...)' --at 'Z1 ...'"]
)


def _eval_expression(tokens, at_text):
    head, rest = tokens[0], tokens[1:]
    if head.startswith("("):
        try:
            f = from_text(" ".join(tokens))
        except ParseError as exc:
            raise ConfigError(f"parse error at character {exc.pos}: {exc}") from exc
        if at_text is None:
            raise ConfigError("textual sums need --at with one coordinate per variable")
        point = _parse_point(at_text)
        if len(point) != f.arity:
            raise ConfigError(
                f"point has {len(point)} coordinates, the sum has arity {f.arity}"
            )
        return evaluate(f, point)
    if head not in _EVAL_FORMS:
        raise ConfigError(f"unknown expression {head!r}; forms: {_EVAL_HELP}")
    args, at, value = _EVAL_FORMS[head]
    if len(rest) != len(args):
        usage = " ".join(name for _, name, _ in args)
        raise ConfigError(f"{head} takes {usage}, got {len(rest)} arguments")
    if at_text is not None and not at:
        raise ConfigError(f"--at does not apply to {head}")
    result = value(*(parse(tok) for (_, _, parse), tok in zip(args, rest)))
    if not at:
        return result
    if at_text is None:
        raise ConfigError(f"{head} needs --at with two coordinates")
    point = _parse_point(at_text)
    if len(point) != 2:
        raise ConfigError(f"{head} needs a two-coordinate point")
    return evaluate(result, point)


def _print_value(value, as_json: bool):
    """Without --json an exact value prints exactly: an integer as digits,
    any other as `float = p/q`, or as p/q alone past the double range."""
    if isinstance(value, Fraction) and not as_json:
        try:
            text = str(value)
        except ValueError as exc:  # past Python's int-to-str digit limit
            raise ConfigError(f"exact value too long to print ({exc})") from exc
        if value.denominator != 1:
            try:
                text = f"{float(value)!r} = {text}"
            except OverflowError:
                pass
        print(text)
        return
    z = complex(value)
    if as_json:
        print(json.dumps({"value_re": z.real, "value_im": z.imag}))
    elif z.imag == 0.0:
        print(repr(z.real))
    else:
        print(repr(z))


def _cmd_eval(args) -> int:
    value = _eval_expression(args.expr, args.at)
    _print_value(value, args.json)
    return 0


# ---------------------------------------------------------------------------
# entry point


# a token that starts with a dash and is read as a value, not a flag
NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobreak",
        description="Verify transform identities over parameter grids "
        "and evaluate expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", choices=SUITES)
    for key, (_, parse, help_text) in VERIFY_OPTIONS.items():
        switch = {"action": "store_const", "const": "yes"} if parse is _parse_bool else {}
        verify.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **switch)
    verify.add_argument("--config", help="key=value file; flags override it")

    ev = sub.add_parser("eval", help="evaluate an expression", epilog=_EVAL_HELP)
    ev.add_argument("expr", nargs="+")
    ev.add_argument("--at", help="evaluation point, comma or space separated")
    ev.add_argument("--json", action="store_true")
    # argparse reads only -2 and -1.5 as values and takes any other token
    # that starts with a dash for a flag; every flag here but -h has two
    # dashes, so -3/2, -3,1, -.5-1j and float()'s -inf and -nan, in any
    # case, are values too
    for p in (verify, ev):
        p._negative_number_matcher = NEGATIVE_VALUE
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_eval(args)
    except (ConfigError, DomainError, ExactnessError, BranchCutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
