"""The demos' printed output, pinned.

`cone_tour` is left out: its adjoint gap (7.45e-12) and the sign of its
recovered value's zero imaginary part depend on last bits of the quadrature.
"""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

THREE_ROUTES = """\
pairing at weights (2, 3), level 2
input:
(sum 2
  (term 1/2 (mono 2 1))
)
  route 'coefficients': agrees
  route 'inflated': agrees
  route 'variant': agrees
output:
(sum 1
  (term -6 (mono 1))
)

Casimir eigenvalue on the level-2 generator: -12 (exact)

composition constants c_ell at these weights:
  ell=0: 1/12
  ell=1: 1/12
  ell=2: 3/40
  ell=3: 1/15
  ell=4: 5/84
"""

REBUILD_FROM_COMPONENTS = """\
max relative residual over three tube points:
  L=0: 6.011e-02
  L=1: 4.563e-02
  L=2: 1.245e-03
  L=3: 8.960e-04
  L=4: 4.167e-05
  L=5: 2.530e-05
  L=6: 1.417e-06
  L=7: 7.707e-07
  L=8: 4.795e-08
"""


def demo_stdout(name: str) -> str:
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        module.main()
    return buf.getvalue()


@pytest.mark.parametrize("name, want", [
    ("three_routes", THREE_ROUTES),
    ("rebuild_from_components", REBUILD_FROM_COMPONENTS),
])
def test_demo_output(name, want):
    assert demo_stdout(name) == want
