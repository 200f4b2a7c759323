"""Seeded op lists for the four benchmark workloads.

A workload is a list of tasks.  A `Suite` task is one `run_suite` call and
each of its verify cases is one op; a `Call` task is one direct transform
call and is one op.  Every op is checked against a reference that does not
come from the code path under test: the suite's own case check (plus the
recorded content hash in exact mode), a closed form, or the other route.

`build(name, seed, short)` makes every input from the seed; holobreak only
ever sees the generated parameters.  Building the inputs is the set-up the
benchmark times as `setup_s`.
"""
from __future__ import annotations

import cmath
import contextlib
import importlib.util
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

# the worker calls run_suite through this module, so that the traced run
# wraps it here like every other call the benchmark makes
from holobreak.cli import SUITE_DEFAULTS, SUITES, SuiteConfig, run_suite  # noqa: F401
from holobreak.juhl import (
    JuhlParams,
    cone_constants,
    cone_fourier_laplace,
    holographic_integral,
    invert_juhl,
    kernel_normalization,
)
from holobreak.l2_model import (
    fourier_laplace,
    halfplane_norm_sq,
    l2fn,
    phi_apply,
    rchat_apply,
    weighted_norm_sq,
)
from holobreak.rc_transform import RCParams, b_const, c_ell

WORKLOADS = ("exact-ladder", "cone-quadrature", "verify-defaults", "constants-grid")

# Tail percentile per workload: the highest percentile that leaves at least
# ten op times beyond it when each op keeps two, the fewest a run keeps.
TAIL_PERCENTILE = {
    "exact-ladder": 98.0,  # 276 ops per repetition
    "cone-quadrature": 70.0,  # 17 ops
    "verify-defaults": 99.5,  # 1191 ops
    "constants-grid": 99.95,  # 14128 ops
}

HASH_FILE = Path(__file__).with_name("exact_hashes.json")
DEMO_NAMES = ("three_routes", "rebuild_from_components", "cone_tour")


@dataclass(frozen=True)
class Suite:
    """One `run_suite` call; `expected_hash` pins exact-mode records."""

    name: str
    config: SuiteConfig
    expected_hash: str | None = None


@dataclass(frozen=True)
class Call:
    """One direct call; `check` gets its value and returns whether it holds."""

    name: str
    compute: Callable[[], object]
    check: Callable[[object], bool]


def suite_key(cfg: SuiteConfig) -> str:
    """Grid description that keys the recorded exact-mode hashes."""
    grids = {g: [str(v) for v in getattr(cfg, g)] for g in ("lam1", "lam2", "lam", "n")}
    return json.dumps({"suite": cfg.suite, "ell_max": cfg.ell_max, **grids}, sort_keys=True)


def load_hashes() -> dict:
    return json.loads(HASH_FILE.read_text())


def rel_err(got, want) -> float:
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(got), abs(want), 1e-300)


def close(want, tol: float) -> Callable[[object], bool]:
    """Relative check; a non-finite value never passes."""
    def check(got) -> bool:
        g = complex(got)
        return math.isfinite(g.real) and math.isfinite(g.imag) and rel_err(g, want) <= tol

    return check


def close_abs(want, tol: float) -> Callable[[object], bool]:
    """Residual check with an absolute floor of 1, as the tests state it."""
    def check(got) -> bool:
        g = complex(got)
        return math.isfinite(abs(g)) and abs(g - want) / max(1.0, abs(want)) < tol

    return check


def _config(suite: str, exact: bool, seed: int = 414213, **grids) -> SuiteConfig:
    d = dict(SUITE_DEFAULTS[suite])
    d.update(grids)
    return SuiteConfig(suite=suite, exact=exact, seed=seed, **d)


# ---------------------------------------------------------------------------
# exact-ladder: term_algebra and Fraction work, no quadrature

def exact_ladder_runs(short: bool) -> list:
    """(suite, grids) of every exact run: rc-identities at its default
    weights, one run per weight pair, and bernstein-sato at its default
    weights, one run per n.  The seed only orders these runs."""
    rc_ell, bs_ell = (2, 2) if short else (8, 7)
    rc = SUITE_DEFAULTS["rc-identities"]
    runs = [("rc-identities", dict(lam1=(a,), lam2=(b,), ell_max=rc_ell))
            for a in rc["lam1"] for b in rc["lam2"]]
    runs += [("bernstein-sato", dict(n=(n,), ell_max=bs_ell)) for n in (3, 4, 5, 6)]
    return runs


def _exact_ladder(rng: random.Random, short: bool) -> list:
    hashes = load_hashes()
    tasks = []
    for suite, grids in exact_ladder_runs(short):
        cfg = _config(suite, True, **grids)
        key = suite_key(cfg)
        if key not in hashes:
            raise KeyError(f"no recorded hash for {key}")
        tasks.append(Suite(key, cfg, hashes[key]))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cone-quadrature: large tensor grids with scalar integrands


def power_positive_cut(w, s) -> complex:
    """w**s with the argument of w taken in (0, 2 pi): the cone kernels'
    branch rule, written out again here so the references do not share the
    program's code."""
    w = complex(w)
    a = cmath.phase(w)
    if a <= 0.0:
        a += 2.0 * math.pi
    return cmath.exp(complex(s) * (math.log(abs(w)) + 1j * a))


def _jitter(rng: random.Random, point):
    """Move every real and imaginary coordinate by at most 0.04."""
    return tuple(complex(c.real + rng.uniform(-0.04, 0.04), c.imag + rng.uniform(-0.04, 0.04))
                 for c in point)


def lorentz(y) -> float:
    """Q(y) = y_1^2 - y_2^2 - ... - y_n^2, kept out of holobreak so that an
    integrand's own arithmetic is not a span in the traced run."""
    return y[0] * y[0] - sum(c * c for c in y[1:])


def _ktype(lam: float):
    return l2fn(lambda z: z ** (lam - 1) * math.exp(-z), lam)


def _g_closed(nu: float):
    """Closed-form cone transform of the level profile h_exp(nu)."""
    const = math.gamma(nu) ** 2 * 2.0 ** (2 * nu - 1)

    def g(tau):
        return const * (-((tau[0] + 1j) ** 2 - tau[1] ** 2)) ** (-nu)

    return g


def _h_exp(nu: float):
    def h(yp):
        return lorentz(yp) ** (nu - 1) * math.exp(-yp[0])

    return h


# Im zeta for the n = 4 transform; at these points the tol 2e-4 schedule
# converges at order 16, so every choice costs the same two passes
RIESZ_PROBES = (
    (3.0, -0.5, 0.2, 0.4),
    (2.5, -0.4, 0.1, 0.3),
    (3.2, -0.3, -0.4, 0.2),
)


# weights at which halfplane_norm_sq takes three passes and meets b_const
# to 1e-3
HALFPLANE_WEIGHTS = (2.5, 3.5, 4.5)

# jittered points per holographic_integral order.  The order-16 calls sit
# between the quarter-second calls and the three transforms of seconds, so
# the tail percentile falls on them
HOLOGRAPHIC_POINTS = {12: 2, 16: 4}

CONE_BASE = (0.4 + 2.0j, -0.3 + 0.3j, 0.1 - 0.2j)
VECTOR_BASE = (0.4 + 1.1j, 0.2 + 0.2j)


def _family(name: str, calls) -> Call:
    """One op made of several (compute, check) calls; it holds when all do."""
    return Call(name, lambda: [compute() for compute, _ in calls],
                lambda values: all(check(v) for (_, check), v in zip(calls, values)))


def _kernel_vector_op(name: str, z3, s2) -> Call:
    """holographic_integral at order 16: pairing the kernel with a lower
    reproducing-kernel vector returns the two-domain kernel."""
    p1 = JuhlParams(3, 3.0, 1)
    nu = 4
    k_low = kernel_normalization(2, nu)

    def vector(tau):
        d1 = tau[0] - s2[0].conjugate()
        d2 = tau[1] - s2[1].conjugate()
        return k_low * (d1 * d1 - d2 * d2) ** (-nu)

    w = tuple(zc - sc.conjugate() for zc, sc in zip(z3, s2)) + (z3[-1],)
    kernel = power_positive_cut(lorentz(w), -nu) * z3[-1] ** p1.ell
    return Call(
        name,
        lambda: holographic_integral(p1, vector, z3, radius=8.0, order=16),
        close(cone_constants(p1)["adjoint_const"] * kernel, 0.15),
    )


def _cone_ops(rng: random.Random, short: bool) -> list:
    tasks = []
    points = {order: 1 if short else k for order, k in HOLOGRAPHIC_POINTS.items()}

    # cone_fourier_laplace, n = 4: F = Q is the s = 3 Riesz power, whose
    # transform is -64 pi Q(zeta)^(-3) (the finite limit of b_4 k_4 at s = 3)
    if not short:
        z4 = tuple(1j * c for c in rng.choice(RIESZ_PROBES))
        tasks.append(Call(
            "cfl4/riesz",
            lambda z=z4: cone_fourier_laplace(
                lorentz, z, 4, rho_exponent=1.0, y_max=25.0, tol=2e-4,
                start_order=8, max_order=16,
            ),
            close(-64.0 * math.pi * power_positive_cut(lorentz(z4), -3), 1e-6),
        ))

    # invert_juhl by both routes at level 0, one op per route, each against
    # the closed form b_3 k_3 Q(zeta + i e1)^(-3) / c_0.  The multiplication
    # route is cone_fourier_laplace (n = 3) of the lift Q^(3/2) e^(-y1); the
    # kernel route is holographic_integral at order 24, held to its
    # smoke-test level, which also bounds how far the routes disagree.
    order, tol, agree = (12, 1e-4, 0.5) if short else (24, 1e-6, 5e-2)
    z3 = _jitter(rng, CONE_BASE)
    level0 = JuhlParams(3, 3.0, 0)
    consts = cone_constants(level0)
    shifted = (z3[0] + 1j, z3[1], z3[2])
    want = (consts["b_n"] * kernel_normalization(3, 3.0)
            * power_positive_cut(lorentz(shifted), -3.0) / consts["c_ell"])
    via_l2 = invert_juhl(3, 3.0, {0: _h_exp(3)}, method="l2", y_max=35.0, tol=tol)
    via_kernel = invert_juhl(3, 3, {0: _g_closed(3)}, method="holographic",
                             radius=10.0, order=order)
    tasks.append(Call("invert_juhl/l2", lambda z=z3: via_l2(z), close(want, tol)))
    tasks.append(Call(f"invert_juhl/holographic/order{order}",
                      lambda z=z3: via_kernel(z), close(want, agree)))

    for i in range(points[16]):
        tasks.append(_kernel_vector_op(f"holographic/order16/kernel-vector/{i}",
                                       _jitter(rng, CONE_BASE), _jitter(rng, VECTOR_BASE)))

    # holographic_integral at order 12: dropping levels above L removes
    # exactly the higher component, so the two assemblies agree bit for bit
    trunc = invert_juhl(3, 3, {0: _g_closed(3), 1: _g_closed(4)}, L=0,
                        method="holographic", radius=10.0, order=12)
    single = invert_juhl(3, 3, {0: _g_closed(3)}, method="holographic",
                         radius=10.0, order=12)
    for i in range(points[12]):
        tasks.append(Call(
            f"holographic/order12/truncation/{i}",
            lambda z=_jitter(rng, CONE_BASE): (trunc(z), single(z)),
            lambda pair: pair[0] == pair[1] and cmath.isfinite(pair[0]),
        ))

    # l2_model: norms, lifts, the segment integral and the Fourier bridge,
    # at the tests' own points.  Moving these points changes how many
    # order doublings the adaptive rules take, so the seed leaves them alone.
    # The millisecond calls are grouped one op per family, as the tests
    # group them; alone they are too short to time on a shared machine.
    k = 1 if short else None
    norms = [(lambda h=_ktype(lam): weighted_norm_sq(h), close(math.gamma(lam) / 2**lam, 1e-9))
             for lam in (2.5, 3.0, 4.0, 4.5, 6.0)[:k]]
    tasks.append(_family("weighted_norm_sq/frozen", norms))
    ratios = []
    for l1, l2, ell in ((2, 2, 0), (2, 2, 1), (F(5, 2), 3, 1), (2, 3, 2))[:k]:
        p = RCParams(l1, l2, ell)
        h = _ktype(float(p.lam3))
        ratios.append((lambda p=p, h=h: weighted_norm_sq(phi_apply(p, h)) / weighted_norm_sq(h),
                       close(float(c_ell(l1, l2, ell)), 1e-8)))
    tasks.append(_family("weighted_norm_sq/lift-isometry", ratios))
    segments = []
    for l1, l2, ell in ((2, 2, 0), (2, 2, 2), (2.5, 3, 1), (2.5, 3, 4), (4, 2, 3))[:k]:
        p = RCParams(l1, l2, ell)
        h = _ktype(float(p.lam3))
        for z in (0.7, 1.3, 2.6):
            want = (1j) ** (-ell) * float(c_ell(l1, l2, ell)) * h(z)
            segments.append((lambda p=p, h=h, z=z: rchat_apply(p, phi_apply(p, h), z, method="jacobi"),
                             close_abs(want, 1e-9)))
    tasks.append(_family("rchat_apply/scaled-identity", segments))
    methods = []
    for l1, l2, ell in ((2, 2, 2), (4, 2, 1))[:k]:
        p = RCParams(l1, l2, ell)
        lift = phi_apply(p, _ktype(float(p.lam3)))
        for z in (0.9, 2.1):
            methods.append((
                lambda p=p, lift=lift, z=z: (rchat_apply(p, lift, z, method="legendre"),
                                             rchat_apply(p, lift, z, method="jacobi")),
                lambda pair: abs(pair[0] - pair[1]) / max(1.0, abs(pair[1])) < 1e-9,
            ))
    tasks.append(_family("rchat_apply/methods", methods))
    pairs = [(lambda h=_ktype(lam), zeta=zeta: fourier_laplace(h, zeta),
              close_abs(math.gamma(lam) * (1 - 1j * zeta) ** (-lam), 1e-9))
             for lam in (2.5, 4.0) for zeta in (1j, 1 + 0.5j)][:k]
    tasks.append(_family("fourier_laplace/pairs", pairs))
    # halfplane_norm_sq is a two-axis panel grid with a scalar integrand,
    # a quarter second a call: one op per weight
    for lam in HALFPLANE_WEIGHTS[:k]:
        gamma = math.gamma(lam)
        tasks.append(Call(
            f"halfplane_norm_sq/lam={lam}",
            lambda lam=lam, gamma=gamma: halfplane_norm_sq(
                lambda zeta: gamma * (1 - 1j * zeta) ** (-lam), lam
            ) / (gamma / 2**lam),
            close(b_const(lam), 1e-3),
        ))
    return tasks


# ---------------------------------------------------------------------------
# verify-defaults: every suite at its shipped defaults, then the demos


def _load_demo(root: Path, name: str):
    path = root / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_demo_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run_demo(module) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        module.main()
    return buf.getvalue()


def _demo_output_holds(name: str, out: str) -> bool:
    """Independent reading of each demo's printed claims."""
    if name == "three_routes":
        return out.count("agrees") == 3 and "DISAGREES" not in out and "(exact)" in out
    if name == "rebuild_from_components":
        res = [float(x) for x in re.findall(r"L=\d+: ([0-9.e+-]+)", out)]
        return len(res) == 9 and all(b < a for a, b in zip(res, res[1:])) and res[-1] < 1e-6
    if name == "cone_tour":
        gap = float(re.search(r"\|lhs-rhs\| = ([0-9.e+-]+)", out).group(1))
        rec = re.search(r"recovered (\S+), direct (\S+)", out)
        ratio = re.search(r"ratio at lam=3, ell=1: ([0-9.e+-]+) \(closed form ([0-9.e+-]+)\)", out)
        return (
            gap < 1e-9
            and abs(complex(rec.group(1)) - float(rec.group(2))) < 1e-9
            and abs(float(ratio.group(1)) - float(ratio.group(2))) < 1e-8
        )
    raise KeyError(name)


def _verify_defaults(rng: random.Random, short: bool, root: Path) -> list:
    # shipped defaults include the suite seed; the benchmark seed only
    # orders the suites and demos, which leaves every case's cost alone
    tasks = []
    for suite in SUITES:
        grids = {"ell_max": 1} if short else {}
        tasks.append(Suite(suite, _config(suite, False, **grids)))
    for name in DEMO_NAMES:
        module = _load_demo(root, name)
        tasks.append(Call(
            f"demo/{name}",
            lambda m=module: _run_demo(m),
            lambda out, name=name: _demo_output_holds(name, out),
        ))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# constants-grid: special_poly scalars and exact polynomial builds

def _constants_grid(rng: random.Random, short: bool) -> list:
    # fixed grids: the seed only orders the three runs, so that every seed
    # gives the same work
    halves = tuple(F(k, 2) for k in range(3, 24))
    span = 4 if short else 16
    ints = tuple(F(k) for k in range(-span, span + 1))
    tasks = [
        Suite("kernels", _config("kernels", True, lam1=ints, lam2=ints,
                                 ell_max=2 if short else 8)),
        Suite("ortho-poly", _config("ortho-poly", True, ell_max=3 if short else 16)),
        Suite("l2-plancherel", _config("l2-plancherel", True,
                                       lam1=halves[:6] if short else halves,
                                       lam2=halves[:6] if short else halves,
                                       lam=(F(3),), ell_max=2 if short else 8)),
    ]
    rng.shuffle(tasks)
    return tasks


def build(name: str, seed: int, short: bool, root: Path) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "exact-ladder":
        return _exact_ladder(rng, short)
    if name == "cone-quadrature":
        return _cone_ops(rng, short)
    if name == "verify-defaults":
        return _verify_defaults(rng, short, root)
    if name == "constants-grid":
        return _constants_grid(rng, short)
    raise KeyError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")
