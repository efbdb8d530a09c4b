"""Public compilation API: one driver over the whole flow.

This is the package's front door::

    from repro.core import CompilerDriver

    program = CompilerDriver(backend="mpfr", polly=True).compile(source)
    result = program.run("kernel", [args...])

Backends: ``"none"`` (vpfloat stays first-class, functional testing),
``"mpfr"`` (the paper's MPFR lowering), ``"boost"`` (the Boost-style
baseline), ``"unum"`` (the coprocessor ISA backend executed on the
machine model).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional

from ..backends import BoostLoweringPass, MPFRLoweringPass
from ..codegen import generate_ir
from ..ir import Module, verify_module
from ..lang import analyze, parse
from ..observability import (
    CAT_CACHE,
    CAT_COMPILE,
    CAT_RUNTIME,
    absorb_kernel_stats,
    absorb_mpfr_stats,
    absorb_pass_timings,
    absorb_profile,
    absorb_report,
    absorb_unum_stats,
    current_ledger,
    current_metrics,
    current_tracer,
    report_fields,
)
from ..passes import build_o3_pipeline
from ..passes.polly import optimize_unit
from ..runtime import CostAccounting, ExecutionResult, Interpreter
from .cache import CacheStats, CompileCache, as_compile_cache, \
    default_cache_dir

BACKENDS = ("none", "mpfr", "boost", "unum")

#: Execution engines, fastest first (see README "Execution engines").
ENGINES = ("jit", "legacy")

__all__ = [
    "BACKENDS", "CacheStats", "CompileCache", "CompileOptions",
    "CompiledProgram", "CompilerDriver", "ENGINES", "as_compile_cache",
    "compile_source", "default_cache_dir", "resolve_engine",
]


def resolve_engine(engine: Optional[str], backend: str) -> str:
    """Validate / default the execution engine selection.

    ``None`` picks the specializing ``jit`` on every backend (``legacy``
    is the reference walker; unum programs run on the UNUM machine
    model whichever engine is named).
    """
    if engine is None:
        return "jit"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"choose from {ENGINES}")
    return engine


@dataclass
class CompileOptions:
    """Knobs mirroring the paper's evaluation configurations."""

    opt_level: int = 3
    polly: bool = False
    polly_tile: int = 16
    backend: str = "mpfr"
    #: MPFR-backend options (the ablation switches).
    reuse_objects: bool = True
    specialize_scalars: bool = True
    in_place_stores: bool = True
    #: -O3 pipeline switches.
    enable_loop_idiom: bool = True
    enable_inlining: bool = True
    enable_unroll: bool = True
    #: FP_CONTRACT: fuse a*b+c into fma (off by default; see passes.fma).
    contract_fma: bool = False
    verify: bool = True


class CompiledProgram:
    """The result of a compilation: IR module and (for unum) assembly."""

    def __init__(self, module: Module, options: CompileOptions,
                 asm=None, tiled_nests: int = 0, pass_timings=None):
        self.module = module
        self.options = options
        self.asm = asm
        self.tiled_nests = tiled_nests
        #: Wall-clock seconds per middle-end pass / backend lowering.
        self.pass_timings: dict = pass_timings or {}
        #: Jit-engine emitted-source store (set by the driver when the
        #: program came through a CompileCache; else created lazily).
        self._codegen_store = None
        #: Batch-mode sidecar key (fingerprint with batch=True) and its
        #: lazily-created store; batch-mode jit source differs from
        #: serial source, so the two never share a sidecar.
        self._batch_codegen_key: Optional[str] = None
        self._batch_store = None
        #: Engine the driver was configured for; ``run()`` falls back
        #: to it when no ``engine`` is passed.
        self._default_engine: Optional[str] = None

    def __getstate__(self):
        # The codegen store holds a live CompileCache reference; the
        # pickled program must stand alone (it *is* a cache entry).
        state = dict(self.__dict__)
        state["_codegen_store"] = None
        state["_batch_store"] = None
        return state

    # ------------------------------------------------------------ #

    def _resolve_mode(self, engine: Optional[str]) -> str:
        """``None`` picks the driver's engine, then the jit."""
        mode = engine if engine is not None else self._default_engine
        return resolve_engine(mode, self.options.backend)

    def _codegen_store_for(self, mode: str):
        if mode != "jit":
            return None
        store = self._codegen_store
        if store is None:
            from ..codegen.pyjit import CodegenStore

            store = CodegenStore()
            self._codegen_store = store
        return store

    def _batch_codegen_store(self):
        store = getattr(self, "_batch_store", None)
        if store is None:
            from ..codegen.pyjit import CodegenStore

            serial = self._codegen_store
            key = getattr(self, "_batch_codegen_key", None)
            if serial is not None and serial.cache is not None \
                    and key is not None:
                store = CodegenStore(serial.cache, key)
            else:
                store = CodegenStore()
            self._batch_store = store
        return store

    # ------------------------------------------------------------ #

    def _pool_default(self, pool: Optional[bool]) -> bool:
        """The runtime MPFR free-list is on for the paper's own runtime
        (mpfr/none) and off for the Boost baseline, whose per-operation
        allocation traffic is the behavior under measurement (Fig. 1)."""
        if pool is None:
            return self.options.backend != "boost"
        return pool

    def run(self, name: str, args: Optional[List[object]] = None,
            max_steps: int = 500_000_000,
            coprocessor=None, costs=None,
            profile: bool = False,
            pool: Optional[bool] = None,
            engine: Optional[str] = None) -> ExecutionResult:
        """Execute a function; returns value + CostReport + stdout.

        ``costs`` selects a CycleCosts profile (default: Xeon-calibrated;
        pass ``ROCKET_CYCLE_COSTS`` for the Fig. 2 FPGA baseline).
        ``engine`` picks the execution engine (:data:`ENGINES`;
        ``None`` means the driver's engine, else the specializing
        jit).  ``profile``/``pool`` configure the interpreter's
        observability layer and MPFR object pool (``pool`` defaults per
        backend: on except for Boost)."""
        accounting = CostAccounting(costs=costs)
        tracer = current_tracer()
        ledger = current_ledger()
        wall0 = time.perf_counter() if ledger is not None else 0.0
        span = tracer.span(f"execute:{name}", cat=CAT_RUNTIME,
                           args={"backend": self.options.backend}) \
            if tracer is not None else None
        if self.options.backend == "unum":
            from ..runtime.unum_machine import UnumMachine

            machine = UnumMachine(self.asm, accounting=accounting,
                                  coprocessor=coprocessor,
                                  max_steps=max_steps)
            try:
                value = machine.run(name, args)
            finally:
                if span is not None:
                    tracer.finish(span)
            report = accounting.report
            report.cycles += machine.scalar_cycles + \
                machine.coprocessor.cycles
            report.serial_cycles = report.cycles - report.parallel_cycles
            result = ExecutionResult(value, report, machine.stdout)
            result.machine = machine
            registry = current_metrics()
            if registry is not None:
                absorb_report(registry, report)
                absorb_unum_stats(registry, machine)
            if ledger is not None:
                ledger.record("run", function=name, backend="unum",
                              engine=None,
                              wall_seconds=time.perf_counter() - wall0,
                              **report_fields(report))
            return result
        mode = self._resolve_mode(engine)
        interpreter = Interpreter(self.module, accounting=accounting,
                                  max_steps=max_steps, dispatch=mode,
                                  profile=profile,
                                  mpfr_pool=self._pool_default(pool),
                                  codegen_store=self._codegen_store_for(mode))
        try:
            result = interpreter.run(name, args)
        finally:
            if span is not None:
                accounting.sync()
                span.args["cycles"] = accounting.report.cycles
                tracer.finish(span)
        result.interpreter = interpreter
        registry = current_metrics()
        kernel_stats = interpreter.kernel_stats
        if registry is not None:
            absorb_report(registry, result.report)
            absorb_mpfr_stats(registry, interpreter.mpfr.stats)
            if result.profile is not None:
                absorb_profile(registry, result.profile)
            if kernel_stats is not None and kernel_stats.ops:
                absorb_kernel_stats(registry, kernel_stats)
        if ledger is not None:
            extra = {}
            if kernel_stats is not None and kernel_stats.ops:
                extra["kernels"] = kernel_stats.as_dict()
            ledger.record("run", function=name,
                          backend=self.options.backend, engine=mode,
                          wall_seconds=time.perf_counter() - wall0,
                          **extra, **report_fields(result.report))
        return result

    def run_batch(self, name: str, args: Optional[List[object]] = None,
                  lanes: int = 1, max_steps: int = 500_000_000, costs=None,
                  pool: Optional[bool] = None):
        """Execute a function across ``lanes`` independent instances
        with one IR dispatch per instruction (the batched jit engine).

        All lanes run the same program and arguments in lockstep SPMD;
        per-lane values and the shared :class:`CostReport` are
        bit-identical to ``lanes`` serial jit runs.  A program the
        batched engine cannot run in lockstep (divergent comparisons,
        non-jittable functions) transparently falls back to per-lane
        serial execution -- still correct, reported via
        ``BatchResult.mode`` and telemetry.  mpfr backend only.
        """
        from ..runtime.batch import (
            BatchDivergence,
            BatchInterpreter,
            BatchResult,
            BatchUnsupported,
            lane_view,
        )

        if self.options.backend != "mpfr":
            raise ValueError(
                "batched execution requires the mpfr backend, "
                f"not {self.options.backend!r}")
        accounting = CostAccounting(costs=costs)
        tracer = current_tracer()
        ledger = current_ledger()
        wall0 = time.perf_counter() if ledger is not None else 0.0
        span = tracer.span(f"execute-batch:{name}", cat=CAT_RUNTIME,
                           args={"backend": self.options.backend,
                                 "lanes": lanes}) \
            if tracer is not None else None
        registry = current_metrics()
        interpreter = BatchInterpreter(
            self.module, lanes, accounting=accounting,
            max_steps=max_steps, mpfr_pool=self._pool_default(pool),
            codegen_store=self._batch_codegen_store())
        try:
            try:
                result = interpreter.run(name, args)
            except (BatchDivergence, BatchUnsupported) as exc:
                interpreter.batch.serial_fallback_lanes += lanes
                interpreter.batch.flush(registry)
                if span is not None:
                    span.args["fallback"] = str(exc)
                serial = self._run_batch_serial(
                    name, args, lanes, max_steps=max_steps,
                    costs=costs, pool=pool, reason=str(exc))
                if ledger is not None:
                    ledger.record(
                        "batch_run", function=name,
                        backend=self.options.backend, engine="jit",
                        lanes=lanes, mode="serial",
                        fallback_reason=str(exc),
                        wall_seconds=time.perf_counter() - wall0,
                        **report_fields(serial.reports[0]))
                return serial
        finally:
            if span is not None:
                accounting.sync()
                span.args["cycles"] = accounting.report.cycles
                tracer.finish(span)
        values = [lane_view(result.value, i) for i in range(lanes)]
        interpreter.batch.flush(registry)
        if registry is not None:
            absorb_report(registry, result.report)
            absorb_mpfr_stats(registry, interpreter.mpfr.stats)
        if ledger is not None:
            ledger.record("batch_run", function=name,
                          backend=self.options.backend, engine="jit",
                          lanes=lanes, mode="batched",
                          wall_seconds=time.perf_counter() - wall0,
                          **report_fields(result.report))
        return BatchResult(lanes=lanes, values=values,
                           reports=[result.report] * lanes,
                           stdout=result.stdout, mode="batched",
                           interpreter=interpreter)

    def _run_batch_serial(self, name, args, lanes, max_steps, costs, pool,
                          reason):
        """Per-lane serial jit runs standing in for a bailed-out batch."""
        from ..runtime.batch import BatchResult

        values: List[object] = []
        reports: List[object] = []
        stdout: List[str] = []
        interpreter = None
        for _ in range(lanes):
            result = self.run(name, args, max_steps=max_steps, costs=costs,
                              pool=pool, engine="jit")
            values.append(result.value)
            reports.append(result.report)
            stdout = result.stdout
            interpreter = result.interpreter
        return BatchResult(lanes=lanes, values=values, reports=reports,
                           stdout=stdout, mode="serial",
                           fallback_reason=reason,
                           interpreter=interpreter)

    def interpreter(self, max_steps: int = 500_000_000, costs=None,
                    profile: bool = False,
                    pool: Optional[bool] = None,
                    engine: Optional[str] = None) -> Interpreter:
        """A fresh interpreter over the compiled module (mpfr/boost/none)."""
        accounting = CostAccounting(costs=costs)
        mode = self._resolve_mode(engine)
        return Interpreter(self.module, accounting=accounting,
                           max_steps=max_steps, dispatch=mode,
                           profile=profile,
                           mpfr_pool=self._pool_default(pool),
                           codegen_store=self._codegen_store_for(mode))

    def machine(self, coprocessor=None, max_steps: int = 500_000_000,
                costs=None):
        """A fresh UNUM machine over the compiled assembly."""
        from ..runtime.unum_machine import UnumMachine

        accounting = CostAccounting(costs=costs)
        return UnumMachine(self.asm, accounting=accounting,
                           coprocessor=coprocessor, max_steps=max_steps)


class CompilerDriver:
    """parse -> sema -> [polly] -> irgen -> -O3 -> backend.

    ``cache`` (a :class:`CompileCache`, a directory path, or None)
    short-circuits :meth:`compile`: a hit skips parse/sema/irgen, the
    whole -O3 pipeline, and the backend lowering, returning a program
    whose runs are bit-identical to a fresh compile.  Keys cover the
    source text, the module name, and every :class:`CompileOptions`
    field, so no stale program can ever be served.
    """

    def __init__(self, backend: str = "mpfr", opt_level: int = 3,
                 polly: bool = False, cache=None, engine=None, **kwargs):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        self.options = CompileOptions(backend=backend, opt_level=opt_level,
                                      polly=polly, **kwargs)
        self.cache = as_compile_cache(cache)
        #: Engine the compiled programs will run under; part of the
        #: cache fingerprint (not a CompileOptions field: it changes
        #: nothing about the IR, only how it is executed).
        self.engine = resolve_engine(engine, backend)

    def compile(self, source: str, name: str = "module") -> CompiledProgram:
        ledger = current_ledger()
        if ledger is None:
            return self._compile_entry(source, name, {})
        info: dict = {}
        wall0 = time.perf_counter()
        program = self._compile_entry(source, name, info)
        cached = info.get("cached", False)
        ledger.record(
            "compile", name=name, backend=self.options.backend,
            engine=self.engine, opt_level=self.options.opt_level,
            polly=self.options.polly, fingerprint=info.get("key"),
            cached=cached,
            wall_seconds=time.perf_counter() - wall0,
            # A cached program carries the *original* compile's pass
            # timings in its pickle; only a fresh compile's are this
            # event's.
            passes=dict(program.pass_timings) if not cached else None,
        )
        return program

    def _compile_entry(self, source: str, name: str,
                       info: dict) -> CompiledProgram:
        """The compile flow proper; fills ``info`` with the cache
        ``key`` and ``cached`` flag for the ledger wrapper."""
        tracer = current_tracer()
        registry = current_metrics()
        if registry is not None:
            registry.inc("compile.count")
        cache = self.cache
        if cache is None:
            if tracer is None:
                return self._finish(self._compile(source, name))
            with tracer.span(f"compile:{name}", cat=CAT_COMPILE,
                             args={"backend": self.options.backend,
                                   "cached": False}):
                return self._finish(self._compile(source, name))
        key = cache.fingerprint(source, self.options, name,
                                engine=self.engine)
        batch_key = cache.fingerprint(source, self.options, name,
                                      engine=self.engine, batch=True)
        info["key"] = key
        if tracer is None:
            program = cache.get(key)
            info["cached"] = program is not None
            if program is None:
                program = self._compile(source, name)
                cache.put(key, program)
            else:
                if registry is not None:
                    registry.inc("compile.cache_hits")
            return self._finish(program, key, batch_key)
        with tracer.span(f"compile:{name}", cat=CAT_COMPILE,
                         args={"backend": self.options.backend}) as span:
            with tracer.span("cache.lookup", cat=CAT_CACHE) as lookup:
                program = cache.get(key)
                lookup.args["hit"] = program is not None
            span.args["cached"] = program is not None
            info["cached"] = program is not None
            if program is None:
                program = self._compile(source, name)
                cache.put(key, program)
            else:
                if registry is not None:
                    registry.inc("compile.cache_hits")
        return self._finish(program, key, batch_key)

    def _finish(self, program: CompiledProgram,
                key: Optional[str] = None,
                batch_key: Optional[str] = None) -> CompiledProgram:
        """A shallow copy of a (possibly cached) program carrying the
        driver-side execution state: the default engine and -- in jit
        mode with a cache -- the emitted-source stores (serial +
        batched, separately keyed) persisting next to the pickle.  The
        copy shares the module; the cache's object stays untouched, so
        its memory tier never keeps a run's jit artifacts alive."""
        program = copy.copy(program)
        program._default_engine = self.engine
        if self.engine == "jit" and key is not None:
            from ..codegen.pyjit import CodegenStore

            program._codegen_store = CodegenStore(self.cache, key)
            program._batch_codegen_key = batch_key
        return program

    def _compile(self, source: str, name: str = "module") -> CompiledProgram:
        options = self.options
        tracer = current_tracer()
        front_span = tracer.span("frontend", cat=CAT_COMPILE) \
            if tracer is not None else None
        unit = analyze(parse(source))
        tiled = 0
        if options.polly:
            tiled = optimize_unit(unit, options.polly_tile)
            if tiled:
                unit = analyze(unit)  # re-resolve the new declarations
        module = generate_ir(unit, name, verify=options.verify)
        if front_span is not None:
            tracer.finish(front_span)
        timings: dict = {}
        if options.opt_level >= 2:
            pipeline = build_o3_pipeline(
                enable_loop_idiom=options.enable_loop_idiom,
                enable_inlining=options.enable_inlining,
                enable_unroll=options.enable_unroll,
                contract_fma=options.contract_fma,
            )
            if tracer is not None:
                with tracer.span("o3-pipeline", cat=CAT_COMPILE):
                    stats = pipeline.run(module)
            else:
                stats = pipeline.run(module)
            timings.update(stats.timings)
            if options.verify:
                verify_module(module)
        asm = None
        lowering_span = None
        if tracer is not None and options.backend != "none":
            lowering_span = tracer.span(f"lowering:{options.backend}",
                                        cat=CAT_COMPILE)
        lowering_started = time.perf_counter()
        if options.backend == "mpfr":
            MPFRLoweringPass(
                reuse_objects=options.reuse_objects,
                specialize_scalars=options.specialize_scalars,
                in_place_stores=options.in_place_stores,
            ).run_module(module)
            if options.verify:
                verify_module(module)
            timings["mpfr-lowering"] = time.perf_counter() - lowering_started
        elif options.backend == "boost":
            BoostLoweringPass().run_module(module)
            if options.verify:
                verify_module(module)
            timings["boost-lowering"] = time.perf_counter() - lowering_started
        elif options.backend == "unum":
            from ..backends.unum_backend import compile_to_unum

            asm = compile_to_unum(module)
            timings["unum-codegen"] = time.perf_counter() - lowering_started
        if lowering_span is not None:
            tracer.finish(lowering_span)
        registry = current_metrics()
        if registry is not None:
            registry.inc("compile.fresh")
            absorb_pass_timings(registry, timings)
        return CompiledProgram(module, options, asm=asm, tiled_nests=tiled,
                               pass_timings=timings)


def compile_source(source: str, backend: str = "mpfr", cache=None,
                   **kwargs) -> CompiledProgram:
    """One-shot convenience wrapper around :class:`CompilerDriver`."""
    return CompilerDriver(backend=backend, cache=cache,
                          **kwargs).compile(source)
