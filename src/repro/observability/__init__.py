"""Unified telemetry subsystem: tracing spans + metrics registry.

This package gives the whole stack -- compiler driver, pass pipeline,
compile cache, interpreter/dispatch, MPFR pool, and the parallel
evaluation engine -- one observability layer:

* :class:`Tracer` -- hierarchical spans (compile -> per-pass ->
  lowering; execute -> per-function with hot-block attribution; cache
  lookups; per-shard worker lifetimes) exported as Chrome trace-event
  JSON, viewable in Perfetto or ``chrome://tracing``.
* :class:`MetricsRegistry` -- namespaced counters/gauges/histograms
  that absorb the stack's pre-existing private stats (CacheStats,
  MpfrStats pool traffic, InterpreterProfile, pass timings,
  CostReport) and the precision telemetry (per-opcode precision-bit
  histograms, rounding-mode and guard-bit usage).  Picklable and
  mergeable, so worker shards fold back into the parent.

Telemetry is **opt-in and process-global**: producers consult
:func:`current_tracer` / :func:`current_metrics`, which return ``None``
until :func:`enable_telemetry` (or :func:`telemetry_session`) installs
live instances.  Every hot-path hook is either bound at construction
time or guarded by a single ``is not None`` check, so the disabled
configuration adds no measurable overhead and never perturbs modeled
cycles -- traced runs are bit-identical to untraced ones.

This module is dependency-free (stdlib only) so any layer of the stack
may import it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

from .ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    RunLedger,
    compare_ledgers,
    bench_floor_scale,
    current_ledger,
    install_ledger,
    ledger_session,
    read_ledger,
    report_fields,
    reproducibility_envelope,
    validate_record,
)
from .metrics import (
    MetricsRegistry,
    absorb_cache_stats,
    absorb_kernel_stats,
    absorb_mpfr_stats,
    absorb_pass_timings,
    absorb_profile,
    absorb_report,
    absorb_unum_stats,
)
from .tracer import (
    CAT_CACHE,
    CAT_COMPILE,
    CAT_PASS,
    CAT_POOL,
    CAT_RUNTIME,
    CAT_VALIDATE,
    CAT_WORKER,
    Span,
    Tracer,
)

__all__ = [
    "CAT_CACHE", "CAT_COMPILE", "CAT_PASS", "CAT_POOL", "CAT_RUNTIME",
    "CAT_VALIDATE", "CAT_WORKER", "LEDGER_SCHEMA_VERSION",
    "LedgerError", "MetricsRegistry", "RunLedger", "Span", "Tracer",
    "absorb_cache_stats", "absorb_kernel_stats", "absorb_mpfr_stats",
    "absorb_pass_timings", "absorb_profile", "absorb_report",
    "bench_floor_scale",
    "absorb_unum_stats",
    "compare_ledgers", "current_ledger", "current_metrics",
    "current_tracer", "enable_telemetry", "install_ledger",
    "install_telemetry", "ledger_session", "read_ledger",
    "report_fields", "reproducibility_envelope", "telemetry_enabled",
    "telemetry_session", "validate_record",
]

_TRACER: Optional[Tracer] = None
_METRICS: Optional[MetricsRegistry] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def current_metrics() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or None when disabled."""
    return _METRICS


def telemetry_enabled() -> bool:
    return _TRACER is not None or _METRICS is not None


def install_telemetry(tracer: Optional[Tracer],
                      metrics: Optional[MetricsRegistry]
                      ) -> Tuple[Optional[Tracer],
                                 Optional[MetricsRegistry]]:
    """Install (tracer, metrics) as the process defaults; returns the
    previous pair so callers can restore it."""
    global _TRACER, _METRICS
    previous = (_TRACER, _METRICS)
    _TRACER = tracer
    _METRICS = metrics
    return previous


def enable_telemetry(trace: bool = False, metrics: bool = False
                     ) -> Tuple[Optional[Tracer],
                                Optional[MetricsRegistry]]:
    """Create and install fresh telemetry objects; returns the new
    (tracer, registry) pair (entries are None for disabled facets)."""
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if metrics else None
    install_telemetry(tracer, registry)
    return tracer, registry


@contextmanager
def telemetry_session(trace: bool = False, metrics: bool = False):
    """Scoped telemetry: installs fresh objects, restores the previous
    configuration on exit.  Yields the (tracer, registry) pair."""
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if metrics else None
    previous = install_telemetry(tracer, registry)
    try:
        yield tracer, registry
    finally:
        install_telemetry(*previous)
