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
"""

from __future__ import annotations

import argparse
import cmath
import csv as csv_mod
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

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
    cone_c_ell,
    cone_constants,
    kernel_normalization,
    phi_isometry_ratio,
    q_constant,
)


class ConfigError(ValueError):
    """Bad command line, config file, or parameter grid."""


# tolerance for checks that compare two closed forms with no quadrature
CLOSED_FORM_TOL = 1e-10

DEFAULT_SEED = 414213
DEFAULT_ORDER = 64
DEFAULT_RADIUS = 60.0


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


def parse_grid(text: str, flag: str) -> tuple:
    values = tuple(parse_value(p) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError(f"empty parameter grid for {flag}")
    return values


def _parse_bool(text: str, key: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot read boolean {text!r} for {key}")


def read_config_file(path: str) -> dict:
    """key=value lines, # comments, keys matching the verify flags."""
    known = {
        "lambda1", "lambda2", "lambda", "n", "ell_max", "tol", "exact",
        "seed", "order", "radius", "report", "csv",
    }
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
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# suite configuration

SUITE_DEFAULTS = {
    "ortho-poly": {
        "lam1": (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2)),
        "lam2": (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2)),
        "lam": (),
        "n": (),
        "ell_max": 6,
        "tol": 1e-10,
    },
    "rc-identities": {
        "lam1": (Fraction(2), Fraction(5, 2)),
        "lam2": (Fraction(2), Fraction(3)),
        "lam": (),
        "n": (),
        "ell_max": 4,
        "tol": 1e-9,
    },
    "rc-plancherel": {
        "lam1": (Fraction(2), Fraction(5, 2)),
        "lam2": (Fraction(2), Fraction(3)),
        "lam": (),
        "n": (),
        "ell_max": 2,
        "tol": 1e-7,
    },
    "l2-plancherel": {
        "lam1": (Fraction(2), Fraction(5, 2)),
        "lam2": (Fraction(2), Fraction(3)),
        "lam": (Fraction(3), Fraction(4)),
        "n": (),
        "ell_max": 2,
        "tol": 1e-3,
    },
    "bernstein-sato": {
        "lam1": (),
        "lam2": (),
        "lam": (Fraction(2), Fraction(7, 2), Fraction(4)),
        "n": (3, 4, 5),
        "ell_max": 4,
        "tol": 1e-12,
    },
    "juhl-plancherel": {
        "lam1": (),
        "lam2": (),
        "lam": (Fraction(3), Fraction(7, 2)),
        "n": (3,),
        "ell_max": 2,
        "tol": 1e-7,
    },
    "kernels": {
        "lam1": tuple(Fraction(k) for k in range(-6, 7)),
        "lam2": tuple(Fraction(k) for k in range(-6, 7)),
        "lam": (Fraction(3), Fraction(7, 2)),
        "n": (3, 4),
        "ell_max": 4,
        "tol": 1e-10,
    },
}

SUITES = tuple(sorted(SUITE_DEFAULTS))


@dataclass(frozen=True)
class SuiteConfig:
    """Everything one suite run depends on; constructed once, then read-only."""

    suite: str
    lam1: tuple
    lam2: tuple
    lam: tuple
    n: tuple
    ell_max: int
    tol: float
    exact: bool
    order: int = DEFAULT_ORDER
    radius: float = DEFAULT_RADIUS
    seed: int = DEFAULT_SEED
    report_path: str = ""
    csv_out: bool = False

    def __post_init__(self):
        if self.suite not in SUITE_DEFAULTS:
            raise ConfigError(
                f"unknown suite {self.suite!r}; choices: {', '.join(SUITES)}"
            )
        if not self.tol > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tol}")
        if self.ell_max < 0:
            raise ConfigError(f"ell-max must be nonnegative, got {self.ell_max}")
        if self.order < 4:
            raise ConfigError(f"quadrature order must be at least 4, got {self.order}")
        if not self.radius > 0:
            raise ConfigError(f"truncation radius must be positive, got {self.radius}")

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

@dataclass(frozen=True)
class CaseResult:
    computed: object
    reference: object
    abs_err: object
    rel_err: object
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Case:
    key: str
    params: dict
    run: object  # () -> CaseResult


@dataclass
class VerificationReport:
    suite: str
    mode: str
    seed: int
    records: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.records if r["pass"])

    @property
    def failed_count(self) -> int:
        return len(self.records) - self.passed_count

    def content_hash(self) -> str:
        stripped = [{k: v for k, v in r.items() if k != "ms"} for r in self.records]
        payload = {
            "suite": self.suite,
            "mode": self.mode,
            "seed": self.seed,
            "records": stripped,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

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
        lines = [json.dumps(r) for r in self.records]
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
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return repr(value)


def _slug(value) -> str:
    if isinstance(value, Fraction):
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
# suite builders


def _squared(poly):
    """Array integrand poly(x)^2, by Horner's rule in float arithmetic."""
    poly = poly.as_float()

    def square(x):
        out = poly(x)
        return out * out

    return square


def _build_ortho_poly(cfg: SuiteConfig, rng) -> list:
    cases = []
    alphas = [v - 1 for v in cfg.need("lam1")]
    betas = [v - 1 for v in cfg.need("lam2")]
    for a in alphas:
        for b in betas:
            for ell in range(cfg.ell_max + 1):
                key = f"jacobi-norm/alpha={_slug(a)}/beta={_slug(b)}/ell={ell:02d}"
                params = {"alpha": _encode(a), "beta": _encode(b), "ell": ell}

                def run(a=a, b=b, ell=ell):
                    rule = build_rule(("jacobi", float(a), float(b)), cfg.order)
                    quad = integrate(_squared(jacobi_poly(ell, a, b)), rule)
                    return _close(quad, complex(jacobi_norm_sq(ell, a, b)).real, cfg.tol)

                cases.append(Case(key, params, run))
    for a in alphas:
        if float(a) <= -0.5:
            continue
        for ell in range(cfg.ell_max + 1):
            key = f"gegenbauer-norm/alpha={_slug(a)}/ell={ell:02d}"
            params = {"alpha": _encode(a), "ell": ell}

            def run(a=a, ell=ell):
                rule = build_rule(("jacobi", float(a) - 0.5, float(a) - 0.5), cfg.order)
                quad = integrate(_squared(gegenbauer_poly(ell, a)), rule)
                return _close(quad, complex(gegenbauer_norm_sq(ell, a)).real, cfg.tol)

            cases.append(Case(key, params, run))
    return cases


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


def _build_rc_identities(cfg: SuiteConfig, rng) -> list:
    cases = []
    pts2 = default_tube_points(2, 12, rng)
    pts1 = default_tube_points(1, 12, rng)
    library = _rc_library()

    def same(a, b, pts):
        return equal(a, b) if cfg.exact else equal(a, b, "sampled", cfg.tol, pts)

    for l1 in cfg.need("lam1"):
        for l2 in cfg.need("lam2"):
            for ell in range(cfg.ell_max + 1):
                p = RCParams(l1, l2, ell)
                tag = f"lam1={_slug(l1)}/lam2={_slug(l2)}/ell={ell:02d}"
                base_params = {"lam1": _encode(l1), "lam2": _encode(l2), "ell": ell}
                for name, f in library:
                    key = f"rc-routes/{name}/{tag}"

                    def run(p=p, f=f):
                        ref = rc_apply(p, f, RC_ROUTES[0])
                        for route in RC_ROUTES[1:]:
                            if not same(ref, rc_apply(p, f, route), pts1):
                                return _bool_case(False, True, f"route {route} differs")
                        return _bool_case(True, True)

                    cases.append(Case(key, dict(base_params), run))

                def run_cas(p=p, l1=l1, l2=l2, ell=ell):
                    g = ktype_generator(p)
                    shift = ell * (l1 + l2 + ell - 1)
                    lhs = casimir_P(l1, l2, g)
                    rhs = scale(g, -shift)
                    return _bool_case(same(lhs, rhs, pts2), True)

                cases.append(Case(f"casimir-eigen/{tag}", dict(base_params), run_cas))

                def run_comp(p=p, l1=l1, l2=l2, ell=ell):
                    got = rc_apply(p, ktype_generator(p))
                    coeff = pochhammer(l1 + l2 + ell - 1, ell)
                    zi = base_poly(1, {(1,): 1, (0,): qqi(0, 1)})
                    want = holo_sum(1, [term(1, coeff, (0,), [(zi, -p.lam3)])])
                    return _bool_case(same(got, want, pts1), True)

                cases.append(Case(f"ktype-composition/{tag}", dict(base_params), run_comp))
    return cases


def _build_rc_plancherel(cfg: SuiteConfig, rng) -> list:
    cases = []
    for l1 in cfg.need("lam1"):
        for l2 in cfg.need("lam2"):
            for ell in range(cfg.ell_max + 1):
                p = RCParams(l1, l2, ell)
                key = f"lift-isometry/lam1={_slug(l1)}/lam2={_slug(l2)}/ell={ell:02d}"
                params = {"lam1": _encode(l1), "lam2": _encode(l2), "ell": ell}

                def run(p=p):
                    lam3 = float(p.lam3)
                    h = l2fn(lambda z: z ** (lam3 - 1) * math.exp(-z), p.lam3)
                    ratio = weighted_norm_sq(phi_apply(p, h)) / weighted_norm_sq(h)
                    return _close(ratio, float(c_ell(p.lam1, p.lam2, p.ell)), cfg.tol)

                cases.append(Case(key, params, run))
    return cases


def _build_l2_plancherel(cfg: SuiteConfig, rng) -> list:
    cases = []
    probes = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.2)) for _ in range(3)]
    for lam in cfg.need("lam"):
        lamf = float(lam)
        tag = f"lam={_slug(lam)}"
        for k, probe in enumerate(probes):
            key = f"transform-image/{tag}/probe={k}"
            params = {"lam": _encode(lam), "probe": _encode(probe)}

            def run(lamf=lamf, probe=probe):
                gamma = math.gamma(lamf)
                F = l2fn(lambda z: z ** (lamf - 1) * math.exp(-z), lamf)
                got = fourier_laplace(F, probe)
                want = gamma * (1 - 1j * probe) ** (-lamf)
                return _close(got, want, 1e-8)

            cases.append(Case(key, params, run))

        def run_iso(lamf=lamf):
            gamma = math.gamma(lamf)

            def G(zeta):
                return gamma * (1 - 1j * zeta) ** (-lamf)

            num = halfplane_norm_sq(G, lamf, xmax=cfg.radius, ymax=cfg.radius)
            ratio = num / (gamma / 2**lamf)
            return _close(ratio, b_const(lamf), cfg.tol)

        cases.append(Case(f"fourier-isometry/{tag}", {"lam": _encode(lam)}, run_iso))
    for l1 in cfg.need("lam1"):
        for l2 in cfg.need("lam2"):
            for ell in range(cfg.ell_max + 1):
                key = f"b-ratio/lam1={_slug(l1)}/lam2={_slug(l2)}/ell={ell:02d}"
                params = {"lam1": _encode(l1), "lam2": _encode(l2), "ell": ell}

                def run(l1=l1, l2=l2, ell=ell):
                    lam3 = l1 + l2 + 2 * ell
                    got = r_ell(l1, l2, ell) * b_const(l1) * b_const(l2)
                    return _close(got, b_const(lam3), CLOSED_FORM_TOL)

                cases.append(Case(key, params, run))
    return cases


def _build_bernstein_sato(cfg: SuiteConfig, rng) -> list:
    cases = []
    for n in cfg.need("n"):
        for lam in cfg.need("lam"):
            if not isinstance(lam, Fraction):
                raise ConfigError(
                    "bernstein-sato needs rational weights; write 7/2, not 3.5"
                )
            for ell in range(cfg.ell_max + 1):
                key = f"eigen-constant/n={n}/lam={_slug(lam)}/ell={ell:02d}"
                params = {"n": n, "lam": _encode(lam), "ell": ell}

                def run(n=n, lam=lam, ell=ell):
                    q0, higher = bernstein_sato_verify(JuhlParams(n, lam, ell))
                    result = _exact_eq(q0, q_constant(n, ell, lam))
                    if higher:
                        rungs = ", ".join(f"j={j}" for j, _ in higher)
                        return CaseResult(
                            result.computed, result.reference, result.abs_err,
                            None, False, f"nonzero higher rungs: {rungs}"
                        )
                    return result

                cases.append(Case(key, params, run))
    return cases


def _cone_probe(dim: int) -> tuple:
    """`dim` coordinates of one interior cone point; the tail's squares sum below 0.005."""
    tail = tuple(0.05 * (-1) ** k / (k + 1) for k in range(dim))
    return ((1.5, 0.4, 0.2, 0.1, -0.15, 0.05) + tail)[:dim]


def _build_juhl_plancherel(cfg: SuiteConfig, rng) -> list:
    cases = []
    for n in cfg.need("n"):
        if n < 3:
            raise ConfigError(f"juhl-plancherel needs dimensions n >= 3, got {n}")
        for lam in cfg.need("lam"):
            lamf = float(lam)
            for ell in range(cfg.ell_max + 1):
                p = JuhlParams(n, lamf, ell)
                tag = f"n={n}/lam={_slug(lam)}/ell={ell:02d}"
                params = {"n": n, "lam": _encode(lam), "ell": ell}

                def run_ratio(p=p, n=n, lamf=lamf):
                    if not lamf > n - 1:
                        return _reported(
                            None, "outside the unitary range (lam <= n - 1), not checked"
                        )
                    ratio = phi_isometry_ratio(
                        p, lambda y: math.exp(-y[0]), _cone_probe(n - 1)
                    )
                    return _close(ratio, cone_c_ell(p), cfg.tol)

                cases.append(Case(f"cone-isometry/{tag}", dict(params), run_ratio))

                def run_rb(p=p):
                    try:
                        consts = cone_constants(p)
                    except PoleError as exc:
                        return _reported("pole", f"{exc}, reported only")
                    got = consts["r_ell"] * consts["b_n"]
                    return _close(got, consts["b_prev"], CLOSED_FORM_TOL)

                cases.append(Case(f"transform-ratio/{tag}", dict(params), run_rb))
    return cases


def _build_kernels(cfg: SuiteConfig, rng) -> list:
    cases = []
    ints1 = [v for v in cfg.need("lam1") if isinstance(v, Fraction) and v.denominator == 1]
    ints2 = [v for v in cfg.need("lam2") if isinstance(v, Fraction) and v.denominator == 1]
    if not ints1 or not ints2:
        raise ConfigError("kernels zero classification needs integer lam1/lam2 grids")
    for l1 in ints1:
        for l2 in ints2:
            for ell in range(cfg.ell_max + 1):
                key = f"zero-class/lam1={int(l1):+03d}/lam2={int(l2):+03d}/ell={ell:02d}"
                params = {"lam1": int(l1), "lam2": int(l2), "ell": ell}

                def run(l1=l1, l2=l2, ell=ell):
                    lam3 = l1 + l2 + 2 * ell
                    predicted = zero_classification(l1, l2, lam3)
                    kind, _ = c_ell_status(l1, l2, ell)
                    if kind in ("pole", "indeterminate"):
                        return _reported(kind, f"{kind} collision, reported only")
                    return _bool_case(predicted, kind == "zero")

                cases.append(Case(key, params, run))

    cases.append(Case(
        "kernel-anchor/half-plane", {"n": 1, "lam": 1},
        lambda: _close(kernel_normalization(1, 1.0), -1.0 / math.pi, CLOSED_FORM_TOL),
    ))
    cases.append(Case(
        "kernel-anchor/rank-two", {"n": 2, "lam": 4},
        lambda: _close(kernel_normalization(2, 4.0), 576.0 / math.pi**2, CLOSED_FORM_TOL),
    ))

    for n in cfg.need("n"):
        if n < 3:
            continue
        for lam in cfg.need("lam"):
            for ell in range(min(cfg.ell_max, 2) + 1):
                key = f"adjoint-factorization/n={n}/lam={_slug(lam)}/ell={ell:02d}"
                params = {"n": n, "lam": _encode(lam), "ell": ell}

                def run(n=n, lam=lam, ell=ell):
                    got = adjoint_constant(JuhlParams(n, float(lam), ell))
                    want = (
                        (-1) ** ell
                        * kernel_normalization(n, float(lam)).conjugate()
                        * complex(q_constant(n, ell, float(lam)))
                    )
                    return _close(got, want, CLOSED_FORM_TOL)

                cases.append(Case(key, params, run))
    return cases


_SUITE_BUILDERS = {
    "ortho-poly": _build_ortho_poly,
    "rc-identities": _build_rc_identities,
    "rc-plancherel": _build_rc_plancherel,
    "l2-plancherel": _build_l2_plancherel,
    "bernstein-sato": _build_bernstein_sato,
    "juhl-plancherel": _build_juhl_plancherel,
    "kernels": _build_kernels,
}


# ---------------------------------------------------------------------------
# suite runner


def run_suite(config: SuiteConfig, stream=None) -> VerificationReport:
    """Run one suite: build the case grid, execute in sorted key order,
    collect one record per case.  A per-case exception becomes a failed
    record rather than aborting the run."""
    rng = random.Random(config.seed)
    cases = _SUITE_BUILDERS[config.suite](config, rng)
    if not cases:
        raise ConfigError(f"suite {config.suite} produced an empty case grid")
    keys = [c.key for c in cases]
    if len(set(keys)) != len(keys):
        raise ConfigError("internal: duplicate case keys")

    report = VerificationReport(config.suite, config.mode, config.seed)
    t_start = time.perf_counter()
    for case in sorted(cases, key=lambda c: c.key):
        t0 = time.perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # a broken case must not hide the rest
            result = CaseResult(None, None, None, None, False,
                                f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - t0) * 1000.0
        record = {
            "suite": config.suite,
            "case": case.key,
            "params": case.params,
            "computed": result.computed,
            "reference": result.reference,
            "abs_err": result.abs_err,
            "rel_err": result.rel_err,
            "pass": result.passed,
            "ms": round(ms, 3),
        }
        if result.note:
            record["note"] = result.note
        report.records.append(record)
        if stream is not None:
            print(json.dumps(record), file=stream, flush=True)
    report.elapsed_ms = (time.perf_counter() - t_start) * 1000.0
    return report


# ---------------------------------------------------------------------------
# verify command plumbing


def _resolve_config(args) -> SuiteConfig:
    file_vals = read_config_file(args.config) if args.config else {}

    def pick(flag, key):
        return flag if flag is not None else file_vals.get(key)

    raw_grids = {
        "lam1": pick(args.lam1, "lambda1"),
        "lam2": pick(args.lam2, "lambda2"),
        "lam": pick(args.lam, "lambda"),
        "n": pick(args.n, "n"),
    }
    defaults = SUITE_DEFAULTS[args.suite]
    grids = {}
    for name in ("lam1", "lam2", "lam"):
        raw = raw_grids[name]
        grids[name] = defaults[name] if raw is None else parse_grid(raw, name)
    if raw_grids["n"] is None:
        grids["n"] = defaults["n"]
    else:
        parsed = parse_grid(raw_grids["n"], "n")
        ns = []
        for v in parsed:
            if not (isinstance(v, Fraction) and v.denominator == 1):
                raise ConfigError(f"dimension grid needs integers, got {v}")
            ns.append(int(v))
        grids["n"] = tuple(ns)

    slash = any("/" in raw for raw in raw_grids.values() if raw is not None)
    exact = bool(args.exact) or slash
    if "exact" in file_vals and not args.exact:
        exact = _parse_bool(file_vals["exact"], "exact") or slash
    if exact:
        for name in ("lam1", "lam2", "lam"):
            if any(isinstance(v, float) for v in grids[name]):
                raise ConfigError(
                    "exact mode needs rational parameters; write 5/2 instead of 2.5"
                )

    def pick_num(flag, key, cast, default):
        if flag is not None:
            return flag
        if key in file_vals:
            try:
                return cast(file_vals[key])
            except ValueError as exc:
                raise ConfigError(f"cannot read {key}={file_vals[key]!r}") from exc
        return default

    tol = pick_num(args.tol, "tol", float, defaults["tol"])
    ell_max = pick_num(args.ell_max, "ell_max", int, defaults["ell_max"])
    order = pick_num(args.order, "order", int, DEFAULT_ORDER)
    radius = pick_num(args.radius, "radius", float, DEFAULT_RADIUS)
    seed = pick_num(args.seed, "seed", int, DEFAULT_SEED)
    report_path = pick(args.report, "report") or ""
    csv_out = bool(args.csv)
    if not csv_out and "csv" in file_vals:
        csv_out = _parse_bool(file_vals["csv"], "csv")

    return SuiteConfig(
        suite=args.suite,
        lam1=grids["lam1"],
        lam2=grids["lam2"],
        lam=grids["lam"],
        n=grids["n"],
        ell_max=ell_max,
        tol=tol,
        exact=exact,
        order=order,
        radius=radius,
        seed=seed,
        report_path=report_path,
        csv_out=csv_out,
    )


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


def _parse_sum(text: str):
    try:
        return from_text(text)
    except ParseError as exc:
        raise ConfigError(f"parse error at character {exc.pos}: {exc}") from exc


def _eval_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {tok!r}") from exc


_EVAL_HELP = (
    "constant C | c_ell L1 L2 ELL | r_ell L1 L2 ELL | b LAM | b_const LAM | "
    "q_constant N ELL LAM | ktype L1 L2 ELL --at 'Z1 Z2' | "
    "psi_ktype L1 L2 ELL --at 'Z1 Z2' | '(sum ...)' --at 'Z1 ...'"
)


def _eval_expression(tokens, at_text):
    head = tokens[0]
    rest = tokens[1:]

    def want(k, usage):
        if len(rest) != k:
            raise ConfigError(f"{head} takes {usage}, got {len(rest)} arguments")

    def no_point():
        if at_text is not None:
            raise ConfigError(f"--at does not apply to {head}")

    if head.startswith("("):
        f = _parse_sum(" ".join(tokens))
        if at_text is None:
            raise ConfigError("textual sums need --at with one coordinate per variable")
        point = _parse_point(at_text)
        if len(point) != f.arity:
            raise ConfigError(
                f"point has {len(point)} coordinates, the sum has arity {f.arity}"
            )
        return evaluate(f, point)
    if head == "constant":
        want(1, "one value")
        no_point()
        return parse_value(rest[0])
    if head == "c_ell":
        want(3, "lam1 lam2 ell")
        no_point()
        return c_ell(parse_value(rest[0]), parse_value(rest[1]), _eval_int(rest[2], "ell"))
    if head == "r_ell":
        want(3, "lam1 lam2 ell")
        no_point()
        return r_ell(parse_value(rest[0]), parse_value(rest[1]), _eval_int(rest[2], "ell"))
    if head in ("b", "b_const"):
        want(1, "lam")
        no_point()
        return b_const(parse_value(rest[0]))
    if head == "q_constant":
        want(3, "n ell lam")
        no_point()
        return q_constant(
            _eval_int(rest[0], "n"), _eval_int(rest[1], "ell"), parse_value(rest[2])
        )
    if head in ("ktype", "psi_ktype"):
        want(3, "lam1 lam2 ell")
        p = RCParams(parse_value(rest[0]), parse_value(rest[1]), _eval_int(rest[2], "ell"))
        f = ktype_generator(p) if head == "ktype" else psi_ktype_closed_form(p)
        if at_text is None:
            raise ConfigError(f"{head} needs --at with two coordinates")
        point = _parse_point(at_text)
        if len(point) != 2:
            raise ConfigError(f"{head} needs a two-coordinate point")
        return evaluate(f, point)
    raise ConfigError(f"unknown expression {head!r}; forms: {_EVAL_HELP}")


def _print_value(value, as_json: bool):
    z = complex(value) if not isinstance(value, complex) else value
    if as_json:
        print(json.dumps({"value_re": z.real, "value_im": z.imag}))
        return
    if isinstance(value, Fraction):
        if value.denominator == 1:
            print(value)
        else:
            print(f"{float(value)!r} = {value}")
        return
    if isinstance(value, QQi):
        print(f"{complex(value)!r} = {value.re} + ({value.im})i")
        return
    if z.imag == 0.0:
        print(repr(z.real))
    else:
        print(repr(z))


def _cmd_eval(args) -> int:
    value = _eval_expression(args.expr, args.at)
    _print_value(value, args.json)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobreak",
        description="Verify transform identities over parameter grids "
        "and evaluate expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--lambda1", dest="lam1", help="comma-separated weight grid")
    verify.add_argument("--lambda2", dest="lam2", help="comma-separated weight grid")
    verify.add_argument("--lambda", dest="lam", help="comma-separated weight grid")
    verify.add_argument("--n", help="comma-separated dimension grid")
    verify.add_argument("--ell-max", dest="ell_max", type=int)
    verify.add_argument("--tol", type=float)
    verify.add_argument("--exact", action="store_true",
                        help="force exact rational comparisons")
    verify.add_argument("--order", type=int, help="quadrature order")
    verify.add_argument("--radius", type=float, help="truncation radius")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--report", help="write the JSON-lines report here")
    verify.add_argument("--csv", action="store_true",
                        help="also write a CSV table beside the report")
    verify.add_argument("--config", help="key=value file; flags override it")

    ev = sub.add_parser("eval", help="evaluate an expression", epilog=_EVAL_HELP)
    ev.add_argument("expr", nargs="+")
    ev.add_argument("--at", help="evaluation point, comma or space separated")
    ev.add_argument("--json", action="store_true")
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
