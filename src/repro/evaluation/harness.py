"""Shared machinery for the evaluation drivers (Tables I-III, Figs. 1-3).

Compiles workload kernels with a configuration, executes them on the
matching engine, and extracts exact output arrays from the simulated
memory so accuracy experiments can compare at full precision.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..bigfloat import BigFloat
from ..core import CompilerDriver
from ..observability import current_ledger, current_metrics, report_fields
from ..runtime import CostReport
from ..unum import UnumConfig, UnumCoprocessor, decode as unum_decode
from ..workloads.polybench import KERNELS, source_for

Number = Union[float, BigFloat]

_MPFR_STRUCT_BYTES = 24

#: Process-global default compile cache: installed by the parallel
#: engine's worker initializer (per-shard warm caches) or by a driver
#: before a sweep.  ``run_kernel`` uses it whenever the caller leaves
#: ``compile_cache`` unset.
_COMPILE_CACHE = None
_UNSET = object()


def set_compile_cache(cache):
    """Install the process default compile cache; returns the old one."""
    global _COMPILE_CACHE
    previous = _COMPILE_CACHE
    _COMPILE_CACHE = cache
    return previous


def get_compile_cache():
    return _COMPILE_CACHE


@dataclass
class RunOutcome:
    """One kernel execution: outputs + performance report."""

    kernel: str
    ftype: str
    backend: str
    n: int
    outputs: List[Number]
    report: CostReport
    value: object
    #: Observability extras (None unless the engine provides them).
    mpfr_stats: object = None
    profile: object = None
    pass_timings: Optional[dict] = None
    #: Translation-validation certificate (None unless ``validate=``
    #: was requested and the backend supports it).
    certificate: object = None


def parse_ftype(ftype: str) -> Tuple[str, dict]:
    """Classify an element type string.

    Returns ("double"/"float"/"mpfr"/"unum", params).  The mpfr form
    accepts both the 3-argument ``vpfloat<mpfr, exp, prec>`` and the
    4-argument ``vpfloat<mpfr, exp, prec, size>`` spelling (``size`` in
    bytes, a storage bound that must hold the significand).
    """
    text = ftype.strip() if isinstance(ftype, str) else ftype
    if text == "double":
        return "double", {}
    if text == "float":
        return "float", {}
    match = re.fullmatch(
        r"vpfloat<\s*mpfr\s*,\s*(\d+)\s*,\s*(\d+)\s*(?:,\s*(\d+)\s*)?>",
        text or "")
    if match:
        prec = int(match.group(2))
        size = int(match.group(3)) if match.group(3) else None
        if size is not None and size * 8 < prec:
            raise ValueError(
                f"element type {ftype!r}: declared size of {size} bytes "
                f"cannot hold a {prec}-bit significand")
        params = {"exp": int(match.group(1)), "prec": prec}
        if size is not None:
            params["size"] = size
        return "mpfr", params
    match = re.fullmatch(
        r"vpfloat<\s*unum\s*,\s*(\d+)\s*,\s*(\d+)\s*(?:,\s*(\d+)\s*)?>",
        text or "")
    if match:
        size = int(match.group(3)) if match.group(3) else None
        return "unum", {"ess": int(match.group(1)),
                        "fss": int(match.group(2)), "size": size}
    raise ValueError(
        f"unrecognized element type {ftype!r}; expected 'double', "
        f"'float', 'vpfloat<mpfr, EXP, PREC[, SIZE]>', or "
        f"'vpfloat<unum, ESS, FSS[, SIZE]>'")


def canonical_source_ftype(ftype: str) -> str:
    """The spelling embedded into generated kernel sources.

    The 4-argument mpfr form collapses to the 3-argument one: the byte
    size is a storage annotation the toolchain's mpfr ABI fixes itself
    (header + limbs), so the compiled source is identical -- and shares
    a compile-cache entry -- with the unannotated spelling.
    """
    kind, params = parse_ftype(ftype)
    if kind == "mpfr" and "size" in params:
        return f"vpfloat<mpfr, {params['exp']}, {params['prec']}>"
    return ftype


def element_stride(ftype: str, backend: str) -> int:
    kind, params = parse_ftype(ftype)
    if kind == "double":
        return 8
    if kind == "float":
        return 4
    if kind == "unum":
        return UnumConfig(params["ess"], params["fss"],
                          params.get("size")).size_bytes
    # mpfr
    if backend in ("mpfr", "boost"):
        return _MPFR_STRUCT_BYTES
    from ..bigfloat import limb_bytes

    return 24 + limb_bytes(params["prec"])


def run_kernel(kernel: str, ftype: str, n: int, backend: str = "none",
               polly: bool = False, read_outputs: bool = True,
               coprocessor: Optional[UnumCoprocessor] = None,
               max_steps: int = 500_000_000, costs=None,
               profile: bool = False,
               pool: Optional[bool] = None,
               compile_cache=_UNSET, engine: Optional[str] = None,
               validate: bool = False,
               **driver_kwargs) -> RunOutcome:
    """Compile + execute one PolyBench kernel; extract its outputs.

    ``engine`` selects the execution engine (``None`` picks the backend
    default), ``profile``/``pool`` the observability layer and MPFR
    pool (see :meth:`CompiledProgram.run`); they are ignored by the
    unum machine backend.  ``compile_cache`` is a
    :class:`~repro.core.CompileCache` (or None/False to force a fresh
    compile); left unset, the process default installed via
    :func:`set_compile_cache` applies.

    ``validate=True`` additionally re-executes the kernel under every
    other execution engine and with the MPFR pool off, and attaches a
    translation-validation certificate (bit-identical outputs, cycle
    reports under the engine/pool invariants) to the outcome; a failed
    certificate raises
    :class:`~repro.validation.CertificateError`.  The primary run is
    untouched -- its outputs and report are bit-identical to a
    non-validated run -- and the flag is a single branch when off.
    Certificates only apply to the interpreter backends; unum-machine
    points are returned unvalidated."""
    spec = KERNELS[kernel]
    source = source_for(kernel, canonical_source_ftype(ftype))
    registry = current_metrics()
    if registry is not None:
        registry.inc("eval.points")
        registry.inc(f"eval.backend.{backend}")
    ledger = current_ledger()
    wall0 = time.perf_counter() if ledger is not None else 0.0
    if compile_cache is _UNSET:
        compile_cache = _COMPILE_CACHE
    driver = CompilerDriver(backend=backend, polly=polly,
                            cache=compile_cache, engine=engine,
                            **driver_kwargs)
    program = driver.compile(source, name=f"{kernel}-{backend}")
    kind, params = parse_ftype(ftype)

    if backend == "unum":
        if coprocessor is None:
            config = UnumConfig(params["ess"], params["fss"],
                                params.get("size"))
            coprocessor = UnumCoprocessor(wgp=min(512, config.precision))
        machine = program.machine(coprocessor=coprocessor,
                                  max_steps=max_steps, costs=costs)
        value = machine.run("run", [n])
        report = machine.accounting.report
        report.cycles += machine.scalar_cycles + machine.coprocessor.cycles
        report.serial_cycles = report.cycles - report.parallel_cycles
        if registry is not None:
            from ..observability import absorb_report, absorb_unum_stats

            absorb_report(registry, report)
            absorb_unum_stats(registry, machine)
        if ledger is not None:
            ledger.record("eval_point", kernel=kernel, ftype=ftype,
                          backend=backend, n=n, engine=None,
                          wall_seconds=time.perf_counter() - wall0,
                          **report_fields(report))
        outputs: List[Number] = []
        if read_outputs:
            outputs = _read_unum_outputs(machine, int(value),
                                         spec.outputs(n), params)
        return RunOutcome(kernel, ftype, backend, n, outputs, report, value,
                          pass_timings=program.pass_timings)

    result = program.run("run", [n], max_steps=max_steps, costs=costs,
                         engine=engine, profile=profile, pool=pool)
    outputs = []
    if read_outputs:
        outputs = _read_interpreter_outputs(
            result.interpreter, int(result.value), spec.outputs(n),
            ftype, backend)
    outcome = RunOutcome(kernel, ftype, backend, n, outputs, result.report,
                         result.value,
                         mpfr_stats=result.interpreter.mpfr.stats,
                         profile=result.profile,
                         pass_timings=program.pass_timings)
    validated = None
    if validate:
        try:
            outcome.certificate = _validate_run(
                program, spec, outcome, engine=engine,
                max_steps=max_steps, costs=costs)
            validated = True
        except Exception:
            if ledger is not None:
                ledger.record(
                    "eval_point", kernel=kernel, ftype=ftype,
                    backend=backend, n=n, engine=engine,
                    validated=False,
                    wall_seconds=time.perf_counter() - wall0,
                    **report_fields(result.report))
            raise
    if ledger is not None:
        fields = report_fields(result.report)
        if validated is not None:
            fields["validated"] = validated
        ledger.record("eval_point", kernel=kernel, ftype=ftype,
                      backend=backend, n=n, engine=engine,
                      wall_seconds=time.perf_counter() - wall0,
                      **fields)
    return outcome


def _validate_run(program, spec, outcome: RunOutcome,
                  engine: Optional[str], max_steps: int,
                  costs) -> object:
    """Cross-run the other engines (and the pool toggle) against the
    primary outcome and assemble its certificate (strict)."""
    from ..core import ENGINES, resolve_engine
    from ..validation import certificate_for_outcomes

    backend = outcome.backend
    reference_engine = resolve_engine(engine, backend)

    # Mirror the primary observation: outputs participate in the
    # witness only when the primary run extracted them.
    read_outputs = bool(outcome.outputs)

    def observe(run_engine, run_pool):
        result = program.run("run", [outcome.n], max_steps=max_steps,
                             costs=costs, engine=run_engine, pool=run_pool)
        values = [result.value]
        if read_outputs:
            values += _read_interpreter_outputs(
                result.interpreter, int(result.value),
                spec.outputs(outcome.n), outcome.ftype, backend)
        return values, result.report

    candidates = []
    for candidate in ENGINES:
        if candidate == reference_engine:
            continue
        values, report = observe(candidate, None)
        candidates.append((f"engine.{candidate}", "exact",
                           values, report))
    if backend != "boost":
        values, report = observe(reference_engine, False)
        candidates.append(("pool.off", "traffic", values, report))
    return certificate_for_outcomes(
        subject=f"{outcome.kernel}-{backend}",
        reference_label=f"engine.{reference_engine}",
        reference=([outcome.value] + list(outcome.outputs),
                   outcome.report),
        candidates=candidates,
        witness={"kernel": outcome.kernel, "ftype": outcome.ftype,
                 "n": outcome.n, "backend": backend},
        strict=True)


def read_lane_outputs(interpreter, base: int, count: int, ftype: str,
                      backend: str) -> List[Number]:
    """Extract output elements from simulated memory.

    The public face of the output reader for callers that hold a
    finished interpreter directly (a program run outside
    :func:`run_kernel`, such as a CG solve)."""
    return _read_interpreter_outputs(interpreter, base, count, ftype,
                                     backend)


def _read_interpreter_outputs(interpreter, base: int, count: int,
                              ftype: str, backend: str) -> List[Number]:
    """Extract ``count`` output elements from simulated memory."""
    stride = element_stride(ftype, backend)
    kind, _params = parse_ftype(ftype)
    values: List[Number] = []
    for i in range(count):
        cell = interpreter.memory.cells.get(base + i * stride)
        raw = cell[0] if cell is not None else None
        if raw is None:
            values.append(0.0)
        elif hasattr(raw, "value") and hasattr(raw, "prec"):
            # MpfrVar handle: its value is the BigFloat.
            values.append(raw.value)
        else:
            values.append(raw)
    return values


def _read_unum_outputs(machine, base: int, count: int,
                       params: dict) -> List[Number]:
    config = UnumConfig(params["ess"], params["fss"], params.get("size"))
    stride = config.size_bytes
    values: List[Number] = []
    for i in range(count):
        raw = machine.memory.load_bytes(base + i * stride, stride)
        values.append(unum_decode(int.from_bytes(raw, "little"), config))
    return values


# ----------------------------------------------------------------- #
# Error metrics
# ----------------------------------------------------------------- #

def as_bigfloat(x: Number, prec: int = 700) -> BigFloat:
    if isinstance(x, BigFloat):
        return x.round_to(prec)
    return BigFloat.from_float(float(x), prec)


def residual_error(outputs: Sequence[Number],
                   reference: Sequence[Number],
                   prec: int = 700) -> BigFloat:
    """max_i |x_i - ref_i| / max(1, max_i |ref_i|) at high precision."""
    from ..bigfloat import arith

    max_abs_diff = BigFloat.zero(prec)
    max_abs_ref = BigFloat.from_int(1, prec)
    for x, ref in zip(outputs, reference):
        a = as_bigfloat(x, prec)
        b = as_bigfloat(ref, prec)
        diff = abs(arith.sub(a, b, prec))
        if diff.is_nan() or a.is_nan():
            return BigFloat.nan(prec)
        if diff > max_abs_diff:
            max_abs_diff = diff
        if abs(b) > max_abs_ref:
            max_abs_ref = abs(b)
    return arith.div(max_abs_diff, max_abs_ref, prec)


def speedup(baseline_cycles: float, cycles: float) -> float:
    return baseline_cycles / cycles if cycles else float("inf")


def geomean(values: Sequence[float]) -> float:
    import math

    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))
