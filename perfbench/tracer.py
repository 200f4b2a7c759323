"""Layer spans recorded from outside the program.

`Tracer.install` rebinds, in every module that calls into another layer,
each imported holobreak function to a wrapper that records a span: layer,
function, op id, start, end and the span that caused it.  A call whose
caller is already in the same layer passes straight through, so calls
inside a layer are not spans.  Spans stay in memory; `metrics()` folds them
into the per-layer figures and `write()` dumps them once the run has ended.

Self time of a span is its duration minus the time its child spans cover.
Work that runs inside a span without crossing a wrapped boundary, such as a
quadrature integrand written in `juhl`, counts as that span's self time.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import time
import types
from collections import Counter
from pathlib import Path

LAYERS = ("special_poly", "quadrature", "term_algebra", "rc_transform", "l2_model", "juhl", "cli")
# modules whose imported holobreak functions are wrapped, besides the
# benchmark's own modules and the demos it loads
CALLER_LAYERS = ("cli", "rc_transform", "l2_model", "juhl")

GAMMA_FAMILY = {"complex_gamma", "reciprocal_gamma", "beta"}
POLY_BUILDS = {"jacobi_poly", "jacobi_inflated", "jacobi_variant", "gegenbauer_poly",
               "gegenbauer_inflated", "poly_one", "poly_two"}
INTEGRALS = {"integrate_adaptive", "integrate_region"}

_now = time.perf_counter_ns


def _final_pass_points(fn, args, kwargs, evaluations: int) -> int:
    """Points of the pass that was accepted, worked out from the call's
    arguments and its order-doubling schedule; all points when the schedule
    does not account for `evaluations`."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if fn.__name__ == "integrate_adaptive":
        def points(order):
            return order
    else:
        def points(order):
            n = 1
            for spec in a["axes"]:
                n *= order * (len(spec[1]) if spec[0] == "panels" else 1)
            return n
    total, order = 0, a["start_order"]
    while order <= a["max_order"]:
        total += points(order)
        if total == evaluations:
            return points(order)
        order *= 2
    return evaluations


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, op, name index, start, end, self)
        self.stack: list[list] = []  # [layer, id, start, child time]
        self.op = 0
        self.counts: Counter = Counter()
        self.rule_build_ns = 0
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        index = len(self.names)
        self.names.append(f"{layer}.{name}")
        observe = self._observer(layer, name, fn)
        stack, spans, counts = self.stack, self.spans, self.counts

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [layer, sid, _now(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = _now()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                spans.append((sid, parent, self.op, index, frame[2], end, duration - frame[3]))
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, layer: str, name: str, fn):
        counts = self.counts
        if layer == "term_algebra":
            def observe(args, kwargs, result, duration):
                terms = getattr(result, "terms", None)
                if terms is not None:
                    counts["term_algebra.terms_out"] += len(terms)
            return observe
        if name in INTEGRALS:
            def observe(args, kwargs, result, duration):
                counts["quadrature.integrals"] += 1
                counts["quadrature.points"] += result.evaluations
                counts["quadrature.integral_ns"] += duration
                if result.converged:
                    counts["quadrature.useful_points"] += _final_pass_points(
                        fn, args, kwargs, result.evaluations)
                else:
                    counts["quadrature.unconverged"] += 1
            return observe
        if name == "rc_apply":
            def observe(args, kwargs, result, duration):
                route = args[2] if len(args) > 2 else kwargs.get("route", "coefficients")
                counts[f"rc_transform.route_ns.{route}"] += duration
            return observe
        if name == "run_suite":
            def observe(args, kwargs, result, duration):
                counts["cli.cases"] += len(result.records)
            return observe
        return None

    def _count_rule_builds(self, fn):
        # build_rule calls made inside quadrature are counted, not spans
        def counted(*args, **kwargs):
            t = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rule_build_ns += _now() - t
                self.counts["quadrature.internal_rule_builds"] += 1
        return counted

    def install(self, caller_modules) -> None:
        """Wrap every cross-layer binding in the given modules and in the
        layers that call other layers, plus the polynomial evaluators."""
        from holobreak import cli, quadrature, special_poly

        layer_of = {f"holobreak.{name}": name for name in LAYERS}
        modules = [importlib.import_module(f"holobreak.{name}") for name in CALLER_LAYERS]
        originals = {}
        for module in modules + list(caller_modules):
            own = layer_of.get(module.__name__)
            for name, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None or layer == own:
                    continue
                if obj not in originals:
                    originals[obj] = self.wrap(layer, name, obj)
                setattr(module, name, originals[obj])
        for cls, layer in ((special_poly.PolyOneVar, "special_poly"),
                           (special_poly.PolyTwoVar, "special_poly"),
                           (cli.VerificationReport, "cli")):
            attr = "content_hash" if cls is cli.VerificationReport else "__call__"
            method = getattr(cls, attr)
            setattr(cls, attr, self.wrap(layer, f"{cls.__name__}.{attr}", method))
        quadrature.build_rule = self._count_rule_builds(quadrature.build_rule)

    # -- results ----------------------------------------------------------

    def metrics(self, bases_interned: int) -> dict:
        calls, self_ns = Counter(), Counter()
        fn_calls, fn_ns = Counter(), Counter()
        for _sid, _parent, _op, index, start, end, own in self.spans:
            name = self.names[index]
            layer, fn = name.split(".", 1)
            calls[layer] += 1
            self_ns[layer] += own
            fn_calls[fn] += 1
            fn_ns[fn] += end - start
        c = self.counts
        s = 1e-9
        points = c["quadrature.points"]
        poly_evals = sum(n for fn, n in fn_calls.items() if fn.endswith("__call__"))
        return {
            "term_algebra.calls": calls["term_algebra"],
            "term_algebra.self_s": self_ns["term_algebra"] * s,
            "term_algebra.terms_out": c["term_algebra.terms_out"],
            "term_algebra.differentiate_s": fn_ns["differentiate"] * s,
            "term_algebra.canonical_form_s": fn_ns["canonical_form"] * s,
            "term_algebra.equal_s": fn_ns["equal"] * s,
            "term_algebra.evaluate_calls": fn_calls["evaluate"],
            "term_algebra.evaluate_s": fn_ns["evaluate"] * s,
            "term_algebra.bases_interned": bases_interned,
            "quadrature.integrals": c["quadrature.integrals"],
            "quadrature.points": points,
            "quadrature.us_per_point": c["quadrature.integral_ns"] * 1e-3 / points if points else 0.0,
            "quadrature.useful_point_ratio": c["quadrature.useful_points"] / points if points else 0.0,
            "quadrature.unconverged": c["quadrature.unconverged"],
            "quadrature.rule_builds": fn_calls["build_rule"] + c["quadrature.internal_rule_builds"],
            "quadrature.rule_build_s": (fn_ns["build_rule"] + self.rule_build_ns) * s,
            "quadrature.self_s": self_ns["quadrature"] * s,
            "special_poly.calls": calls["special_poly"],
            "special_poly.self_s": self_ns["special_poly"] * s,
            "special_poly.gamma_calls": sum(fn_calls[fn] for fn in GAMMA_FAMILY),
            "special_poly.poly_builds": sum(fn_calls[fn] for fn in POLY_BUILDS),
            "special_poly.poly_evals": poly_evals,
            "special_poly.pole_errors": c["special_poly.errors.PoleError"],
            "rc_transform.self_s": self_ns["rc_transform"] * s,
            "rc_transform.route_s.coefficients": c["rc_transform.route_ns.coefficients"] * s,
            "rc_transform.route_s.inflated": c["rc_transform.route_ns.inflated"] * s,
            "rc_transform.route_s.variant": c["rc_transform.route_ns.variant"] * s,
            "juhl.self_s": self_ns["juhl"] * s,
            "juhl.bernstein_sato_s": fn_ns["bernstein_sato_verify"] * s,
            "juhl.cone_fl_s": fn_ns["cone_fourier_laplace"] * s,
            "juhl.holographic_s": fn_ns["holographic_integral"] * s,
            "l2_model.calls": calls["l2_model"],
            "l2_model.self_s": self_ns["l2_model"] * s,
            "cli.cases": c["cli.cases"],
            "cli.self_s": self_ns["cli"] * s,
        }

    def write(self, path: Path) -> None:
        """One tab-separated line per span, in completion order, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tspan\tstart_ns\tend_ns\tself_ns\n")
            names = self.names
            for sid, parent, op, index, start, end, own in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{names[index]}\t{start}\t{end}\t{own}\n")
