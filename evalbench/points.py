"""Workload points, the CG program, and the output oracle.

A *point* is one timed unit of user-visible work:

* ``evalgrid-cold`` / ``evalgrid-warm``: one PolyBench kernel compiled
  through :class:`repro.core.CompilerDriver`, executed, and its outputs
  read back, all through :func:`repro.evaluation.harness.run_kernel`
  (the path the ``fig1``/``fig2`` drivers take);
* ``cg-dynamic``: one Conjugate Gradient solve (paper Algorithm 1) of a
  CG program written in the vpfloat C dialect over the Listing 4 BLAS,
  at a runtime precision chosen per point.

Every grid point has a committed expectation in ``expected.json``: a
digest of its output values computed by an independent configuration
(the ``none`` backend at -O0 on the ``legacy`` engine) and the exact
model metrics of the configuration under test.  CG points are checked
against :func:`repro.solvers.cg.conjugate_gradient`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.bigfloat import BigFloat
from repro.blas import VBLAS_DIALECT_SOURCE
from repro.evaluation.fig2 import UNUM_TYPE
from repro.solvers import bcsstk20_like, conjugate_gradient, rhs_for
from repro.workloads.polybench import FIG1_KERNELS, FIG2_KERNELS, KERNELS

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Problem size per kernel dimensionality.  Cold points are small so the
#: compile layers do most of the work; warm points are large enough that
#: execution dominates a cache-hit compile.
COLD_SIZES = {1: 8, 2: 4, 3: 3}
WARM_SIZES = {1: 32, 2: 8, 3: 5}

#: The unum coprocessor computes at a 512-bit working precision
#: (``run_kernel`` builds it with ``wgp=min(512, precision)``), so the
#: independent reference for a unum point is a 512-bit mpfr-typed run.
UNUM_REFERENCE_TYPE = "vpfloat<mpfr, 16, 512>"

#: Model metrics stored beside each digest; a point whose run reports
#: different values fails.
MODEL_METRICS = ("cycles", "llc_misses", "dram_bytes", "mpfr_calls")

#: Defects of the program at the commit that added this benchmark,
#: (kernel, backend) -> (failure class, cause).  Their points stay in
#: the grids and count as failed, so a fix shows up as a higher ok_rate;
#: only a mismatch *not* listed here makes a run incorrect.
KNOWN_DEFECTS = {
    ("adi", "boost"): (
        "RecursionError",
        "pickling the program for the compile cache exceeds the "
        "recursion limit; CompileCache._disk_put lets it escape"),
    ("deriche", "mpfr"): (
        "mismatch",
        "the mpfr lowering changes deriche's outputs: they differ from "
        "the none-backend, boost and double runs, which agree"),
}


@dataclass(frozen=True)
class GridPoint:
    kernel: str
    backend: str
    ftype: str
    polly: bool
    n: int

    @property
    def key(self) -> str:
        tag = "unum" if self.backend == "unum" else \
            self.ftype.split(",")[-1].strip(" >")
        config = "polly" if self.polly else "O3"
        return f"{self.kernel}/{self.backend}/{tag}/{config}/n{self.n}"

    @property
    def known_defect(self):
        return KNOWN_DEFECTS.get((self.kernel, self.backend))

    @property
    def reference_ftype(self) -> str:
        return UNUM_REFERENCE_TYPE if self.backend == "unum" else self.ftype


def _mpfr_type(prec: int) -> str:
    return f"vpfloat<mpfr, 16, {prec}>"


def cold_size(kernel: str) -> int:
    return COLD_SIZES[KERNELS[kernel].dims]


def cold_grid() -> List[GridPoint]:
    """Fig. 1 (all PolyBench kernels x mpfr/boost x -/+Polly at 128
    bits) and Fig. 2 (FIG2_KERNELS on unum, -/+Polly)."""
    grid = [GridPoint(k, backend, _mpfr_type(128), polly,
                      COLD_SIZES[KERNELS[k].dims])
            for k in FIG1_KERNELS for backend in ("mpfr", "boost")
            for polly in (False, True)]
    grid += [GridPoint(k, "unum", UNUM_TYPE, polly,
                       COLD_SIZES[KERNELS[k].dims])
             for k in FIG2_KERNELS for polly in (False, True)]
    return grid


def warm_grid() -> List[GridPoint]:
    """Fig. 1 -Polly at 128 and 512 bits on mpfr and boost, and Fig. 2
    on unum."""
    grid = [GridPoint(k, backend, _mpfr_type(prec), False,
                      WARM_SIZES[KERNELS[k].dims])
            for k in FIG1_KERNELS for prec in (128, 512)
            for backend in ("mpfr", "boost")]
    grid += [GridPoint(k, "unum", UNUM_TYPE, False,
                       WARM_SIZES[KERNELS[k].dims])
             for k in FIG2_KERNELS]
    return grid


def shuffled(points: Sequence, seed: int, round_index: int) -> list:
    """The seeded order of one round over ``points``."""
    order = list(points)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


# ----------------------------------------------------------------- #
# Output digests and the committed oracle
# ----------------------------------------------------------------- #

def canonical(value) -> str:
    """Exact, precision-independent spelling of one output value."""
    if isinstance(value, BigFloat):
        if value.is_nan():
            return "nan"
        sign = "-" if value.sign else "+"
        if value.is_inf():
            return sign + "inf"
        if value.is_zero():
            return sign + "0"
        mant, exp = value.mant, value.exp
        shift = (mant & -mant).bit_length() - 1
        return f"{sign}{mant >> shift:x}p{exp + shift}"
    if isinstance(value, float):
        return canonical(BigFloat.from_float(value, 53))
    return repr(value)


def digest(outputs: Sequence) -> str:
    text = "\n".join(canonical(v) for v in outputs)
    return hashlib.sha256(text.encode()).hexdigest()


def model_metrics(report) -> Dict[str, int]:
    return {name: int(getattr(report, name)) for name in MODEL_METRICS}


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def check_grid_point(expected: Dict[str, dict], point: GridPoint,
                     output_digest: str,
                     metrics: Dict[str, int]) -> str:
    """'' when the point matches its oracle entry, else the mismatch."""
    entry = expected.get(point.key)
    if entry is None:
        return "no oracle entry"
    if output_digest != entry["digest"]:
        return "output digest mismatch"
    for name in MODEL_METRICS:
        if metrics[name] != entry[name]:
            return f"{name} {metrics[name]} != expected {entry[name]}"
    return ""


# ----------------------------------------------------------------- #
# cg-dynamic: Algorithm 1 over the Listing 4 BLAS
# ----------------------------------------------------------------- #

#: System size and conditioning.  n = 6 keeps an mpfr solve near 0.1 s,
#: so a round of 100 solves takes about 12 s; the spectrum still spans
#: 12 decades, so iterations fall with precision (10 at 60 bits, 6 from
#: about 200 bits) as in Fig. 3.
CG_N = 6
CG_CONDITION = 1e12
CG_TOLERANCE = 1e-10
CG_MAX_ITERATIONS = 20 * CG_N
CG_PRECISION_RANGE = (60, 1100)
#: Solves per seed for each backend, one per equal slice (stratum) of
#: the precision range.  7:3 mpfr:boost: a boost solve takes about 2.5x
#: an mpfr one, so this puts the median inside the mpfr solves and p90
#: inside the boost ones instead of in the gap between them, where it
#: would jump from run to run.
CG_STRATA = {"mpfr": 70, "boost": 30}
CG_BACKENDS = tuple(CG_STRATA)


def cg_matrix():
    return bcsstk20_like(n=CG_N, condition=CG_CONDITION)


def cg_source(matrix) -> str:
    """Algorithm 1 in the dialect: x0 = 0, the Hestenes-Stiefel loop
    with the oracle's exact operation order, and the result returned as
    a heap array holding x followed by the iteration count."""
    n = matrix.nrows
    vp = "vpfloat<mpfr, 16, prec>"
    fills = "\n".join(f"  A[{i * n + j}] = {a!r};"
                      for i in range(n) for j, a in matrix.row(i))
    rhs_params = ", ".join(f"double b{i}" for i in range(n))
    rhs_stores = "\n".join(f"  r[{i}] = b{i};" for i in range(n))
    return VBLAS_DIALECT_SOURCE + f"""
void cg_matrix(double *A) {{
  for (int i = 0; i < {n * n}; i++) A[i] = 0.0;
{fills}
}}

long cg(unsigned prec, int max_iter, double tol, {rhs_params}) {{
  int n = {n};
  double A[{n * n}];
  cg_matrix(A);
  {vp} one = 1.0;
  {vp} minus_one = -1.0;
  {vp} zero = 0.0;
  {vp} x[{n}];
  {vp} r[{n}];
  {vp} p[{n}];
  {vp} ap[{n}];
  for (int i = 0; i < n; i++) {{
    x[i] = 0.0;
    ap[i] = 0.0;
  }}
{rhs_stores}
  vgemv(prec, n, n, one, A, x, zero, ap);
  vaxpy(prec, n, minus_one, ap, r);
  for (int i = 0; i < n; i++) p[i] = r[i];
  {vp} rr = vdot(prec, n, r, r);
  {vp} tolv = tol;
  {vp} resid = vp_sqrt(rr);
  int iters = 0;
  int converged = 0;
  if (resid <= tolv) converged = 1;
  while (!converged && iters < max_iter) {{
    for (int i = 0; i < n; i++) ap[i] = 0.0;
    vgemv(prec, n, n, one, A, p, zero, ap);
    {vp} pap = vdot(prec, n, p, ap);
    if (pap != pap || pap <= 0.0) break;
    {vp} alpha = rr / pap;
    vaxpy(prec, n, alpha, p, x);
    {vp} nalpha = -alpha;
    vaxpy(prec, n, nalpha, ap, r);
    {vp} rr_next = vdot(prec, n, r, r);
    resid = vp_sqrt(rr_next);
    iters = iters + 1;
    if (resid <= tolv) {{
      converged = 1;
      break;
    }}
    if (rr == 0.0) break;
    {vp} beta = rr_next / rr;
    vscal(prec, n, beta, p);
    vaxpy(prec, n, one, r, p);
    rr = rr_next;
  }}
  {vp} *out = ({vp} *)malloc({n + 1} * sizeof({vp}));
  for (int i = 0; i < n; i++) out[i] = x[i];
  out[n] = iters;
  return (long)out;
}}
"""


@dataclass(frozen=True)
class CGPoint:
    backend: str
    prec: int
    rhs_seed: int

    @property
    def key(self) -> str:
        return f"cg/{self.backend}/p{self.prec}/rhs{self.rhs_seed}"

    @property
    def ftype(self) -> str:
        return _mpfr_type(self.prec)


def cg_points(seed: int) -> List[CGPoint]:
    """For each backend, a precision drawn inside each of its equal
    slices of Fig. 3's range (stratified, so every seed covers the range
    evenly) and a right-hand side per solve."""
    rng = random.Random(f"{seed}:cg")
    lo, hi = CG_PRECISION_RANGE
    points = []
    for backend, strata in CG_STRATA.items():
        width = (hi - lo + 1) / strata
        for stratum in range(strata):
            first = lo + int(stratum * width)
            last = lo + int((stratum + 1) * width) - 1
            points.append(CGPoint(backend, rng.randint(first, last),
                                  rng.randrange(1, 2 ** 31)))
    return points


def cg_args(matrix, point: CGPoint) -> list:
    return [point.prec, CG_MAX_ITERATIONS, CG_TOLERANCE] + \
        rhs_for(matrix, seed=point.rhs_seed)


def check_cg_point(matrix, point: CGPoint, outputs: Sequence,
                   references: dict) -> str:
    """'' when the solve matches the Python-BLAS oracle: the same
    iteration count, and x within 16 ulps of the working precision
    (relative to max(1, |x_ref|_inf)).  ``references`` memoizes the
    oracle's solves by point."""
    from repro.evaluation.harness import residual_error

    ref = references.get(point)
    if ref is None:
        ref = references[point] = conjugate_gradient(
            matrix, rhs_for(matrix, seed=point.rhs_seed), point.prec,
            CG_TOLERANCE, CG_MAX_ITERATIONS)
    iterations = outputs[CG_N]
    if iterations != BigFloat.from_int(ref.iterations, 64):
        return f"iterations {canonical(iterations)} != {ref.iterations}"
    error = residual_error(outputs[:CG_N], ref.x, prec=point.prec + 64)
    if error.is_nan():
        return "solution is NaN"
    if not error.is_zero() and \
            error.mant.bit_length() + error.exp > 4 - point.prec:
        return "solution outside working precision"
    return ""
