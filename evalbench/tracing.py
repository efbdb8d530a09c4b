"""Traced-run instrumentation: spans around each layer's public entry
points, plus a low-rate CPU sampling profiler for execute self time.

Nothing here changes the program: every span is opened by a wrapper the
benchmark installs around a call into one layer, and the wrappers are
removed again after each traced point.  Spans are kept in memory (one
tuple each) and only aggregated or written out when the run ends.

A span's *self time* is its duration minus the time covered by its
direct children.  Execute self time is further split by module group
from ``ITIMER_PROF`` samples taken while an execute span is open.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

import repro.backends.unum_backend as unum_backend
import repro.codegen.irgen as irgen
import repro.core as core
import repro.evaluation.harness as harness
from repro.backends import BoostLoweringPass, MPFRLoweringPass
from repro.codegen.pyjit import FunctionEmitter, JitEngine
from repro.core import CompiledProgram, CompileCache, CompilerDriver
from repro.passes import PassManager
from repro.runtime.unum_machine import UnumMachine

#: Sampling period of the CPU profiler (200 Hz of CPU time).
SAMPLE_INTERVAL = 0.005

#: Span clock: process CPU time, the clock run.py reports times in.
clock = time.process_time

EXECUTE_SPANS = ("runtime.execute", "runtime.unum_machine")

#: Innermost-frame file -> module group, first match wins.
SAMPLE_GROUPS = (
    ("/repro/runtime/cost_model.py", "memory_model"),
    ("/repro/runtime/memory.py", "memory_model"),
    ("/repro/bigfloat/", "arith"),
    ("/repro/codegen/smallfloat.py", "arith"),
    ("/repro/codegen/kernels.py", "arith"),
    ("<vpsmall:", "arith"),
    ("<vpkernel:", "arith"),
    ("/repro/runtime/dispatch.py", "dispatch"),
    ("<vpjit:", "jit_body"),
    ("/repro/runtime/unum_machine.py", "unum"),
    ("/repro/unum/", "unum"),
    ("/repro/runtime/interpreter.py", "interpreter"),
)


def sample_group(filename: str) -> str:
    for marker, group in SAMPLE_GROUPS:
        if marker in filename:
            return group
    return "other"


class Recorder:
    """Spans, counters and samples of one process."""

    def __init__(self):
        #: (name, start, end, parent index or -1, point id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.samples: Counter = Counter()
        self._open: List[list] = []
        self._execute_depth = 0
        self._groups: Dict[str, str] = {}
        self.point_id = -1

    def open(self, name: str) -> list:
        parent = self._open[-1][3] if self._open else -1
        record = [name, clock(), parent, len(self.spans)]
        self.spans.append(None)  # reserve the slot: parents precede
        self._open.append(record)
        if name in EXECUTE_SPANS:
            self._execute_depth += 1
        return record

    def close(self, record: list) -> None:
        end = clock()
        name, start, parent, index = record
        self._open.pop()
        if name in EXECUTE_SPANS:
            self._execute_depth -= 1
        self.spans[index] = (name, start, end, parent, self.point_id)

    def on_sample(self, signum, frame) -> None:
        if not self._execute_depth or frame is None:
            return
        filename = frame.f_code.co_filename
        group = self._groups.get(filename)
        if group is None:
            group = self._groups[filename] = sample_group(filename)
        self.samples[group] += 1

    def merge(self, payload: dict) -> None:
        """Add what another process's recorder took."""
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1,
             point)
            for name, start, end, parent, point in payload["spans"])
        self.counts.update(payload["counts"])
        self.samples.update(payload["samples"])

    def take(self) -> dict:
        """Everything recorded so far, as plain picklable data; resets."""
        payload = {"spans": self.spans, "counts": dict(self.counts),
                   "samples": dict(self.samples)}
        self.spans, self.counts, self.samples = [], Counter(), Counter()
        return payload


# ----------------------------------------------------------------- #
# Wrappers around the layers' entry points
# ----------------------------------------------------------------- #

def _spanned(recorder: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        record = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if after is not None:
            after(recorder.counts, args, result)
        return result
    return wrapper


def _instructions(module) -> int:
    return sum(len(block.instructions)
               for func in module.functions.values()
               for block in func.blocks)


def _after_o3(counts, args, stats) -> None:
    counts["o3.runs"] += 1
    counts["ir.instructions"] += _instructions(args[1])
    for pass_name, seconds in stats.timings.items():
        counts[f"pass.{pass_name}"] += seconds


def _after_get(counts, args, program) -> None:
    counts["cache.gets"] += 1
    counts["cache.hits"] += program is not None


def _after_run(counts, args, result) -> None:
    report = result.report
    counts["runs"] += 1
    counts["runtime.instructions"] += report.instructions
    counts["line_accesses"] += sum(report.cache_hits) + report.llc_misses
    counts["mpfr_calls"] += report.mpfr_calls
    interpreter = getattr(result, "interpreter", None)
    if interpreter is not None:
        stats = interpreter.mpfr.stats
        counts["pool.hits"] += stats.pool_hits
        counts["pool.misses"] += stats.pool_misses


def _after_unum(counts, args, value) -> None:
    machine = args[0]
    report = machine.accounting.report
    counts["runs"] += 1
    counts["runtime.instructions"] += machine.steps
    counts["line_accesses"] += sum(report.cache_hits) + report.llc_misses


def _cache_method(recorder: Recorder, name: str, fn, after=None):
    """A CompileCache method span that also counts cache errors: those
    the cache records itself and exceptions escaping the call."""
    def wrapper(cache, *args, **kwargs):
        errors = cache.stats.errors
        record = recorder.open(name)
        try:
            result = fn(cache, *args, **kwargs)
        except Exception:
            recorder.counts["cache.errors"] += 1
            raise
        finally:
            recorder.close(record)
            recorder.counts["cache.errors"] += cache.stats.errors - errors
        if after is not None:
            after(recorder.counts, (cache,) + args, result)
        return result
    return wrapper


def _jit_entry(recorder: Recorder, fn):
    def wrapper(engine, func):
        fresh = id(func) not in engine._entries
        record = recorder.open("codegen.pyjit.materialize")
        try:
            entry = fn(engine, func)
        finally:
            recorder.close(record)
        if fresh:
            recorder.counts["jit.attempted"] += 1
            recorder.counts["jit.jitted"] += entry is not None
        return entry
    return wrapper


def _patches(recorder: Recorder):
    """(owner, attribute, wrapper) for every traced entry point."""
    spanned = partial(_spanned, recorder)
    return [
        (CompilerDriver, "compile",
         spanned("core.compile", CompilerDriver.compile)),
        (core, "parse", spanned("lang.parse", core.parse)),
        (core, "analyze", spanned("lang.sema", core.analyze)),
        (core, "optimize_unit",
         spanned("passes.polly", core.optimize_unit)),
        (core, "generate_ir", spanned("codegen.irgen", core.generate_ir)),
        (core, "verify_module", spanned("ir.verify", core.verify_module)),
        (irgen, "verify_module",
         spanned("ir.verify", irgen.verify_module)),
        (PassManager, "run",
         spanned("passes.o3", PassManager.run, _after_o3)),
        (MPFRLoweringPass, "run_module",
         spanned("backends.lower", MPFRLoweringPass.run_module)),
        (BoostLoweringPass, "run_module",
         spanned("backends.lower", BoostLoweringPass.run_module)),
        (unum_backend, "compile_to_unum",
         spanned("backends.lower", unum_backend.compile_to_unum)),
        (CompileCache, "get",
         _cache_method(recorder, "core.cache.get", CompileCache.get,
                       _after_get)),
        (CompileCache, "put",
         _cache_method(recorder, "core.cache.put", CompileCache.put)),
        (JitEngine, "entry", _jit_entry(recorder, JitEngine.entry)),
        (FunctionEmitter, "emit",
         spanned("codegen.pyjit.emit", FunctionEmitter.emit)),
        (CompiledProgram, "run",
         spanned("runtime.execute", CompiledProgram.run, _after_run)),
        (UnumMachine, "run",
         spanned("runtime.unum_machine", UnumMachine.run, _after_unum)),
        (harness, "_read_interpreter_outputs",
         spanned("evaluation.extract", harness._read_interpreter_outputs)),
        (harness, "_read_unum_outputs",
         spanned("evaluation.extract", harness._read_unum_outputs)),
    ]


@contextmanager
def tracing(recorder: Optional[Recorder], point_id: int):
    """Trace one point: install the wrappers and the sampler, open the
    point's root span, and undo all of it afterwards.  ``recorder=None``
    runs the point untraced."""
    if recorder is None:
        yield
        return
    saved = []
    for owner, attribute, wrapper in _patches(recorder):
        # None: the attribute is inherited, so undoing means deleting.
        saved.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, wrapper)
    previous = signal.signal(signal.SIGPROF, recorder.on_sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    recorder.point_id = point_id
    root = recorder.open("point")
    try:
        yield
    finally:
        recorder.close(root)
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
        for owner, attribute, original in reversed(saved):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


# ----------------------------------------------------------------- #
# Aggregation
# ----------------------------------------------------------------- #

def self_times(spans) -> Dict[str, float]:
    """Total self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _point in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, _parent, _point) in enumerate(spans):
        totals[name] += end - start - child_time[index]
    return dict(totals)


def total_times(spans) -> Dict[str, float]:
    """Total inclusive time per span name, counting nested spans of the
    same name once."""
    totals: Counter = Counter()
    for name, start, end, parent, _point in spans:
        if parent < 0 or spans[parent][0] != name:
            totals[name] += end - start
    return dict(totals)
