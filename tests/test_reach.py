"""The reach ledger: every public function and method of the six library
modules is called by a `holobreak verify` suite at its defaults, by a demo,
or by a CLI run that CI makes, or it is listed in UNREACHED (functions) or
UNREACHED_METHODS (methods) next to what will reach it.

A public function is a module-level function whose name does not start with
an underscore and whose `__module__` is its module.  A public method is a
function or property getter in the body of a public class of those modules,
whose name does not start with an underscore (so operator dunders stay out)
and whose code lies in the module's file (so the methods `dataclass`
generates stay out).  The probe runs in a fresh interpreter, so that a memo
warmed by an earlier test cannot hide a call, and records every call under
`sys.setprofile`.  `PYTHONPATH=src python tests/test_reach.py` prints the
unreached names.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name -> the ROADMAP item that brings it into `verify`, or "perfbench" for
# a function only the benchmark reads
UNREACHED = {
    "juhl.cone_fourier_laplace": "items 6 and 10",
    "juhl.holographic_integral": "items 6 and 10",
    "juhl.invert_juhl": "item 6",
    "juhl.juhl_operator_norm_sq": "item 13",
    "juhl.juhl_sbo_apply": "item 5",
    "juhl.relative_kernel": "item 6",
    "l2_model.invert_rchat": "item 6",
    "l2_model.rchat_apply": "item 4",
    "l2_model.weight_M": "item 4",
    "l2_model.weighted_inner": "item 4",
    "rc_transform.rc_operator_norm_sq": "item 13",
    "term_algebra.registered_bases": "perfbench",
    "term_algebra.sl2_action": "item 20",
    "term_algebra.sl2_casimir": "item 20",
}

# the same for methods, by module.Class.name
UNREACHED_METHODS = {
    "special_poly.PolyTwoVar.coeff": "item 5",
}

MODULES = ("special_poly", "quadrature", "term_algebra", "rc_transform", "l2_model", "juhl")

# every named `eval` form once, and the README's textual sum; CI's "Every
# eval form" step makes the same calls through the installed script
EVALS = (
    ("constant", "2"),
    ("c_ell", "2", "2", "1"),
    ("r_ell", "2", "3", "1"),
    ("b", "5/2"),
    ("b_const", "7/2"),
    ("q_constant", "3", "1", "2"),
    ("ktype", "2", "3", "1", "--at", "1+1j 2+1j"),
    ("psi_ktype", "2", "3", "1", "--at", "1+1j 2+1j"),
    ("(sum 1 (term 2 (mono 1)))", "--at", "0.5+1j"),
)

DEMOS = ("three_routes", "rebuild_from_components", "cone_tour")


def public_functions() -> dict:
    """Qualified name -> function object, over the six library modules."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"holobreak.{name}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                    and inspect.isfunction(inspect.unwrap(obj))):
                out[f"{name}.{attr}"] = obj
    return out


def public_methods() -> dict:
    """Qualified name -> method function (a property's getter), over the
    public classes of the six library modules."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"holobreak.{name}")
        for cls_name, cls in vars(module).items():
            if (cls_name.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            for attr, obj in vars(cls).items():
                f = obj.fget if isinstance(obj, property) else obj
                if (not attr.startswith("_") and inspect.isfunction(f)
                        and f.__code__.co_filename == module.__file__):
                    out[f"{name}.{cls_name}.{attr}"] = f
    return out


def unreached() -> dict:
    """Sorted names of the public functions ("functions") and methods
    ("methods") that no run calls: the seven suites at their defaults in
    both modes, CI's b-ratio run past the double range, EVALS and the three
    demos."""
    from holobreak import cli

    runs = [["verify", s, *mode] for s in cli.SUITES for mode in ([], ["--exact"])]
    runs.append(["verify", "l2-plancherel", "--lambda1", "-1/2", "--lambda2", "300"])
    runs += [["eval", *e] for e in EVALS]
    demos = []
    for name in DEMOS:
        spec = importlib.util.spec_from_file_location(f"demo_{name}", REPO / "demos" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        demos.append(module.main)

    codes, builtins = set(), set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
        elif event == "c_call":  # an lru_cache wrapper is a C callable
            builtins.add(id(arg))

    functions, methods = public_functions(), public_methods()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                if cli.main(argv) != 0:
                    raise SystemExit(f"holobreak {' '.join(argv)} did not exit 0")
            for main in demos:
                main()
    finally:
        sys.setprofile(None)
    return {
        "functions": sorted(name for name, f in functions.items()
                            if inspect.unwrap(f).__code__ not in codes and id(f) not in builtins),
        "methods": sorted(name for name, f in methods.items() if f.__code__ not in codes),
    }


@functools.cache
def _probe() -> dict:
    import holobreak

    src = str(Path(holobreak.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _check_ledger(found: list, listed: dict, ledger: str):
    new = sorted(set(found) - listed.keys())
    assert not new, (
        f"no suite, demo or CI run reaches {new}: reach them, or list each in "
        f"{ledger} with the item that will reach it and a sentence in CHANGES.md")
    gone = sorted(listed.keys() - set(found))
    assert not gone, f"{gone} are reached now, or are no longer public: take them off {ledger}"


def test_every_public_function_is_reached_or_listed():
    _check_ledger(_probe()["functions"], UNREACHED, "UNREACHED")


def test_every_public_method_is_reached_or_listed():
    _check_ledger(_probe()["methods"], UNREACHED_METHODS, "UNREACHED_METHODS")


if __name__ == "__main__":
    print(json.dumps(unreached()))
