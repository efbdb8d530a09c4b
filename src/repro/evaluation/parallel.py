"""Parallel sharded evaluation engine for the paper's sweeps.

The evaluation drivers (Tables I-III, Figs. 1-3) walk grids of
(kernel, element type, size, backend) points.  Every point is
independent, so this module fans them out over ``multiprocessing``
workers:

* **Deterministic sharding** -- task ``i`` always lands in shard
  ``i % jobs`` (:func:`shard_tasks`), and each shard preserves task
  order, so a worker sweeps *its* points in a stable sequence and the
  collected results are returned in exactly the submission order,
  independent of worker scheduling.
* **Per-shard warm caches** -- each worker process installs a
  :class:`~repro.core.cache.CompileCache` over a shared on-disk
  directory (:func:`repro.evaluation.harness.set_compile_cache`), so
  repeated compilations hit the process-local LRU and first-time
  compilations are persisted for every other worker and every later
  run.
* **Structured results** -- tasks return plain data
  (:class:`~repro.evaluation.harness.RunOutcome`: outputs +
  CostReport + mpfr_stats + pass_timings), pickled back to the parent.
* **Graceful degradation** -- ``jobs=1`` (or a single task) runs
  serially in-process with identical semantics; a broken worker pool
  (crashed process, sandbox without POSIX semaphores, ...) falls back
  to the serial path instead of surfacing a stack of multiprocessing
  internals.

Exceptions raised *by a task* are not crashes: they are re-raised in
the parent as :class:`EvaluationTaskError` carrying the worker's
traceback, matching serial behavior.
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.cache import CompileCache, default_cache_dir
from ..observability import (
    CAT_WORKER,
    MetricsRegistry,
    RunLedger,
    Tracer,
    current_ledger,
    current_metrics,
    current_tracer,
    install_ledger,
    install_telemetry,
)
from .harness import RunOutcome, run_kernel, set_compile_cache


class EvaluationTaskError(RuntimeError):
    """A sweep task failed; carries the worker-side traceback."""

    def __init__(self, index: int, message: str):
        super().__init__(f"evaluation task #{index} failed:\n{message}")
        self.index = index


def shard_tasks(count: int, jobs: int,
                groups: Optional[Sequence] = None) -> List[List[int]]:
    """Round-robin task indices into ``jobs`` shards, order-preserving.

    Without ``groups``, task ``i`` goes to shard ``i % jobs`` -- a pure
    function of the grid, never of scheduling -- so reruns assign
    identical work and per-shard compile-cache warmth is reproducible.

    With ``groups`` (one hashable key per task), whole groups are
    round-robined instead: every task sharing a key lands in the same
    shard, groups are assigned in first-occurrence order (group ``g``
    to shard ``g % jobs``), and each shard keeps its tasks in grid
    order.  The evaluation drivers group by (kernel, backend, element
    type) so one worker compiles each program once and reuses it from
    its warm compile cache, instead of interleaving unrelated kernels;
    the assignment stays a pure function of the grid.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if groups is None:
        shards = [[] for _ in range(min(jobs, count) or 1)]
        for index in range(count):
            shards[index % len(shards)].append(index)
        return [shard for shard in shards if shard]
    groups = list(groups)
    if len(groups) != count:
        raise ValueError(f"groups must have one key per task: "
                         f"{len(groups)} keys for {count} tasks")
    members: "dict" = {}
    for index, key in enumerate(groups):
        members.setdefault(key, []).append(index)
    shards = [[] for _ in range(min(jobs, len(members)) or 1)]
    for g, key in enumerate(members):
        shards[g % len(shards)].extend(members[key])
    for shard in shards:
        shard.sort()
    return [shard for shard in shards if shard]


# ----------------------------------------------------------------- #
# Worker side
# ----------------------------------------------------------------- #

def init_worker_runtime(cache_dir: Optional[str], use_cache: bool,
                        ledger_path: Optional[str] = None) -> None:
    """Install one worker process's runtime state: the compile cache
    (process-global default) and, when the parent has a run ledger,
    reopen it.  The ledger appends whole lines through one O_APPEND
    descriptor per process, so every worker writing to the same file is
    safe; under the spawn start method this is the only way the
    parent's programmatic ``install_ledger`` reaches the children (fork
    inherits it, but the per-PID descriptor logic reopens on first use
    either way)."""
    set_compile_cache(CompileCache(cache_dir) if use_cache else None)
    if ledger_path is not None:
        install_ledger(RunLedger(ledger_path))


def _run_shard(fn: Callable, shard: List[Tuple[int, tuple]],
               telemetry: Tuple[bool, bool] = (False, False)):
    """Execute one shard's tasks in order; never raises (returns
    (triples, telemetry_payload) where the triples are per-task
    (index, ok, payload) so one failed point does not discard its
    siblings' finished work).

    ``telemetry`` mirrors the parent's installed (tracer, metrics)
    facets.  The worker installs *fresh* objects for the shard -- under
    the fork start method the parent's globals are inherited, and
    recording into them would both hide the data from the parent and
    double-count once the shard's payload is merged back -- and ships
    the results home as picklable plain data.
    """
    want_trace, want_metrics = telemetry
    if not (want_trace or want_metrics):
        results = []
        for index, args in shard:
            try:
                results.append((index, True, fn(*args)))
            except Exception:
                results.append((index, False, traceback.format_exc()))
        return results, None
    tracer = Tracer() if want_trace else None
    registry = MetricsRegistry() if want_metrics else None
    previous = install_telemetry(tracer, registry)
    try:
        span = tracer.span("worker.shard", cat=CAT_WORKER,
                           args={"tasks": len(shard)}) \
            if tracer is not None else None
        results = []
        for index, args in shard:
            try:
                results.append((index, True, fn(*args)))
            except Exception:
                results.append((index, False, traceback.format_exc()))
        if span is not None:
            span.args["failures"] = sum(1 for _, ok, _ in results
                                        if not ok)
            tracer.finish(span)
    finally:
        install_telemetry(*previous)
    payload = {
        "events": list(tracer.events) if tracer is not None else None,
        "metrics": registry.to_dict() if registry is not None else None,
    }
    return results, payload


def _merge_shard_telemetry(payload) -> None:
    """Fold one shard's telemetry payload into the parent's installed
    tracer/registry (no-ops for facets either side disabled)."""
    if not payload:
        return
    tracer = current_tracer()
    if tracer is not None and payload.get("events"):
        tracer.extend(payload["events"])
    registry = current_metrics()
    if registry is not None and payload.get("metrics"):
        registry.merge(MetricsRegistry.from_dict(payload["metrics"]))


# ----------------------------------------------------------------- #
# Engine
# ----------------------------------------------------------------- #

def _pool_context():
    """Fork where available (fast, inherits sys.path), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_serial(fn: Callable, tasks: Sequence[tuple],
                cache: Optional[CompileCache]) -> List[Any]:
    previous = set_compile_cache(cache)
    try:
        return [fn(*args) for args in tasks]
    finally:
        set_compile_cache(previous)


def _run_pool(fn: Callable, tasks: Sequence[tuple], jobs: int,
              cache_dir: Optional[str], use_cache: bool,
              groups: Optional[Sequence] = None) -> List[Any]:
    from concurrent.futures import ProcessPoolExecutor

    shards = shard_tasks(len(tasks), jobs, groups=groups)
    slots: List[Any] = [None] * len(tasks)
    failures: List[Tuple[int, str]] = []
    telemetry = (current_tracer() is not None,
                 current_metrics() is not None)
    ledger = current_ledger()
    ledger_path = str(ledger.path) if ledger is not None else None
    with ProcessPoolExecutor(
            max_workers=len(shards), mp_context=_pool_context(),
            initializer=init_worker_runtime,
            initargs=(cache_dir, use_cache, ledger_path)) as pool:
        futures = [
            pool.submit(_run_shard, fn,
                        [(i, tasks[i]) for i in shard], telemetry)
            for shard in shards
        ]
        for future in futures:
            results, shard_telemetry = future.result()
            _merge_shard_telemetry(shard_telemetry)
            for index, ok, payload in results:
                if ok:
                    slots[index] = payload
                else:
                    failures.append((index, payload))
    if failures:
        index, text = min(failures)
        raise EvaluationTaskError(index, text)
    return slots


def parallel_map(fn: Callable, tasks: Sequence[tuple], jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 compile_cache: bool = True,
                 groups: Optional[Sequence] = None) -> List[Any]:
    """Run ``fn(*args)`` for every args-tuple in ``tasks``.

    Results come back in task order.  ``fn`` must be a module-level
    callable (workers import it by reference) and both its arguments
    and results must pickle.

    ``jobs=1`` runs serially in-process.  ``cache_dir=None`` uses
    :func:`repro.core.cache.default_cache_dir`; ``compile_cache=False``
    disables compile caching entirely (every point pays the full
    middle-end, the uncached-baseline configuration).  ``groups``
    (one hashable key per task) keeps same-keyed tasks on one worker
    (see :func:`shard_tasks`); results still come back in task order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(tasks)
    if not tasks:
        return []
    resolved_dir = cache_dir if cache_dir is not None \
        else default_cache_dir()
    if jobs == 1 or len(tasks) == 1:
        cache = CompileCache(resolved_dir) if compile_cache else None
        return _run_serial(fn, tasks, cache)
    try:
        return _run_pool(fn, tasks, jobs, resolved_dir, compile_cache,
                         groups=groups)
    except EvaluationTaskError:
        raise
    except Exception as error:
        # Broken pool / unpicklable environment / no semaphores:
        # degrade to the serial engine rather than failing the sweep.
        print(f"warning: parallel evaluation degraded to serial "
              f"({type(error).__name__}: {error})", file=sys.stderr)
        cache = CompileCache(resolved_dir) if compile_cache else None
        return _run_serial(fn, tasks, cache)


# ----------------------------------------------------------------- #
# Kernel grids
# ----------------------------------------------------------------- #

@dataclass(frozen=True)
class GridPoint:
    """One (kernel, ftype, n, backend) sweep point.

    ``options`` holds extra :func:`run_kernel` keyword arguments as a
    sorted tuple of items, keeping the point hashable and picklable.
    """

    kernel: str
    ftype: str
    n: int
    backend: str = "none"
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kernel: str, ftype: str, n: int,
             backend: str = "none", **options) -> "GridPoint":
        return cls(kernel, ftype, n, backend,
                   tuple(sorted(options.items())))


def _eval_point(point: GridPoint) -> RunOutcome:
    return run_kernel(point.kernel, point.ftype, point.n,
                      backend=point.backend, **dict(point.options))


def _point_group(point: GridPoint):
    """The same-program group key of a sweep point: every point sharing
    it compiles to the same program at the same precision, so one
    worker can amortize compilation over the whole group.  Unparseable
    element types fall back to their literal spelling (run_kernel will
    surface the error)."""
    from .harness import canonical_source_ftype

    try:
        ftype = canonical_source_ftype(point.ftype)
    except ValueError:
        ftype = point.ftype
    return (point.kernel, point.backend, ftype)


def run_grid(points: Sequence[GridPoint], jobs: int = 1,
             cache_dir: Optional[str] = None,
             compile_cache: bool = True) -> List[RunOutcome]:
    """Evaluate a grid of sweep points; outcomes in grid order.

    Points are sharded by same-program group -- (kernel, backend,
    canonical element type) -- so each worker sweeps whole groups
    instead of an interleaving of unrelated kernels (better
    compile-cache locality).  Results are bit-identical either way.
    """
    points = list(points)
    return parallel_map(_eval_point, [(p,) for p in points], jobs=jobs,
                        cache_dir=cache_dir, compile_cache=compile_cache,
                        groups=[_point_group(p) for p in points])
