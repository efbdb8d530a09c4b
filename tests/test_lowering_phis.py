"""Loop-carried vpfloat values through the MPFR-object lowerings.

After lowering, a phi names an MPFR object by pointer.  When a write can
reach an object a live phi may name (the lost-copy and swap problems of
out-of-SSA translation), the phi needs its own object, filled by copies
on its incoming edges.  These programs rotate loop-carried values the
way that breaks aliasing; every lowering must agree with ``none``.
"""

import pytest

from repro.blas import VBLAS_DIALECT_SOURCE
from repro.core import CompilerDriver
from repro.evaluation.harness import read_lane_outputs

T = "vpfloat<mpfr, 16, 128>"

#: ``t`` declared in the loop body: its object is block-scoped.
FIB_BODY_DECL = f"""
double run(int n) {{
  {T} a = 0.0;
  {T} b = 1.0;
  for (int i = 0; i < n; i++) {{
    {T} t = a + b;
    b = a;
    a = t;
  }}
  return (double)a;
}}
"""

FIB_OUTER_DECL = f"""
double run(int n) {{
  {T} a = 0.0;
  {T} b = 1.0;
  {T} t;
  for (int i = 0; i < n; i++) {{
    t = a + b;
    b = a;
    a = t;
  }}
  return (double)a;
}}
"""

#: ``b`` enters the loop undefined: its object gets no copy on the
#: entry edge.
FIB_LATE_INIT = f"""
double run(int n) {{
  {T} a = 0.0;
  {T} b;
  {T} t;
  for (int i = 0; i < n; i++) {{
    if (i == 0) b = 1.0;
    t = a + b;
    b = a;
    a = t;
  }}
  return (double)a;
}}
"""

#: deriche's loop shape: two carried values shift while a third sums.
DERICHE_SHAPE = f"""
double run(int n) {{
  {T} y[8];
  for (int j = 0; j < n; j++) y[j] = (double)(j + 1);
  {T} s = 0.0;
  {T} ym1 = 0.0;
  {T} ym2 = 0.0;
  for (int j = 0; j < n; j++) {{
    s = s + ym2 * 10.0;
    ym2 = ym1;
    ym1 = y[j];
  }}
  return (double)s;
}}
"""

#: An inner loop swaps two values an outer loop updates: both inner
#: phis own objects and copy into each other, a cycle the parallel
#: copy breaks with a saved temporary.
NESTED_SWAP = f"""
double run(int n) {{
  {T} a = 1.0;
  {T} b = 2.0;
  for (int j = 0; j < 3; j++) {{
    a = a + 10.0;
    for (int i = 0; i < n; i++) {{
      {T} t = a;
      a = b;
      b = t;
    }}
  }}
  return (double)a * 100.0 + (double)b;
}}
"""

PROGRAMS = {
    "fib-body-decl": (FIB_BODY_DECL, 10, 55.0),
    "fib-outer-decl": (FIB_OUTER_DECL, 3, 2.0),
    "fib-late-init": (FIB_LATE_INIT, 10, 55.0),
    "deriche-shape": (DERICHE_SHAPE, 5, 60.0),
    "nested-swap": (NESTED_SWAP, 3, 1221.0),
}


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
@pytest.mark.parametrize("backend", ["none", "mpfr", "boost"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_rotating_values_agree_with_none(program, backend, opt_level):
    source, n, expected = PROGRAMS[program]
    compiled = CompilerDriver(backend=backend,
                              opt_level=opt_level).compile(source)
    for engine in ("jit", "legacy"):
        assert compiled.run("run", [n], engine=engine).value == expected, \
            engine


def test_swap_gets_one_copy_per_carried_value():
    """Fibonacci's two rotating phis each own an object: one add and
    two copies per iteration, no more."""
    program = CompilerDriver(backend="mpfr").compile(FIB_BODY_DECL)
    calls = [program.run("run", [n]).report.mpfr_calls for n in (4, 8)]
    assert (calls[1] - calls[0]) == 4 * 3


def test_static_accumulator_keeps_aliasing():
    """A single accumulator needs no copy: its phi is dead when the op
    overwrites the object it names."""
    source = f"""
    double run(int n) {{
      {T} s = 0.0;
      for (int j = 0; j < n; j++) s = s * 0.5 + 1.0;
      return (double)s;
    }}
    """
    program = CompilerDriver(backend="mpfr").compile(source)
    assert "mpfr.phi" not in str(program.module)
    calls = [program.run("run", [n]).report.mpfr_calls for n in (4, 8)]
    assert calls[1] - calls[0] == 4 * 2


# ----------------------------------------------------------------- #
# The CG program (paper Algorithm 1 over the Listing 4 BLAS)
# ----------------------------------------------------------------- #

@pytest.fixture(scope="module")
def cg(evalbench_points):
    points = evalbench_points
    matrix = points.cg_matrix()
    return points, matrix, points.cg_source(matrix)


def _solve(cg, backend, opt_level, prec=200, engine="jit"):
    points, matrix, source = cg
    program = CompilerDriver(backend=backend,
                             opt_level=opt_level).compile(source, "cg")
    point = points.CGPoint(backend, prec, 1)
    run = program.run("cg", points.cg_args(matrix, point), engine=engine)
    outputs = read_lane_outputs(run.interpreter, int(run.value),
                                points.CG_N + 1, point.ftype, backend)
    return point, outputs, run.report


@pytest.mark.parametrize("opt_level", [0, 1, 3])
@pytest.mark.parametrize("backend", ["mpfr", "boost"])
def test_cg_matches_oracle(cg, backend, opt_level):
    points, matrix, _ = cg
    point, outputs, _ = _solve(cg, backend, opt_level)
    assert points.check_cg_point(matrix, point, outputs, {}) == ""


@pytest.mark.parametrize("backend", ["mpfr", "boost"])
def test_cg_runtime_precision_engines_agree(cg, backend):
    points = cg[0]
    results = [_solve(cg, backend, 3, prec=257, engine=engine)
               for engine in ("jit", "legacy")]
    assert [points.canonical(v) for v in results[0][1]] == \
        [points.canonical(v) for v in results[1][1]]
    assert results[0][2].cycles == results[1][2].cycles


VGEMV_DRIVER = """
double run(unsigned precision, int n) {
  double A[16];
  vpfloat<mpfr, 16, precision> X[16];
  vpfloat<mpfr, 16, precision> Y[1];
  for (int j = 0; j < n; j++) {
    A[j] = 0.5 + j;
    X[j] = 1.0 + j;
  }
  Y[0] = 0.0;
  vpfloat<mpfr, 16, precision> alpha = 1.0;
  vpfloat<mpfr, 16, precision> beta = 0.0;
  vgemv(precision, 1, n, alpha, A, X, beta, Y);
  return (double)Y[0];
}
"""


@pytest.mark.parametrize("backend", ["mpfr", "boost"])
def test_runtime_precision_loop_costs_what_static_costs(backend):
    """Paper §III-B: attributes are IR values so dynamic types optimize
    like static ones.  The vgemv inner loop makes the same library
    calls per iteration at a runtime precision as at a fixed one."""
    dynamic = VBLAS_DIALECT_SOURCE + VGEMV_DRIVER
    static = dynamic.replace("vpfloat<mpfr, 16, precision>",
                             "vpfloat<mpfr, 16, 200>")
    per_iteration = {}
    for label, source in (("dynamic", dynamic), ("static", static)):
        program = CompilerDriver(backend=backend).compile(source)
        calls = []
        for n in (4, 8):
            run = program.run("run", [200, n])
            assert run.value == sum((0.5 + j) * (1 + j) for j in range(n))
            calls.append(run.report.mpfr_calls)
        per_iteration[label] = (calls[1] - calls[0]) / 4
    assert per_iteration["dynamic"] == per_iteration["static"]
