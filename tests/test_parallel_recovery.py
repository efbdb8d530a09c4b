"""Worker-death recovery in the parallel evaluation engine.

The sweep engine promises graceful degradation: a broken worker pool
falls back to the serial engine with identical results, task-level
failures surface as :class:`EvaluationTaskError` (lowest index first)
without discarding siblings, and the sharding function is a pure
function of the grid.
"""

import os

import pytest

from repro.core.cache import CompileCache
from repro.evaluation.harness import get_compile_cache, set_compile_cache
from repro.evaluation.parallel import (
    EvaluationTaskError,
    GridPoint,
    init_worker_runtime,
    parallel_map,
    run_grid,
    shard_tasks,
)
from repro.observability import current_ledger, install_ledger
from repro.validation.certificate import values_digest

FTYPE = "vpfloat<mpfr, 16, 64>"


def _die_in_workers(parent_pid: int, value: int) -> int:
    """Kills any worker process outright; returns in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return value * 2


def _fail_on_odd(value: int) -> int:
    if value % 2:
        raise ValueError(f"odd input {value}")
    return value


class TestShardTasks:
    def test_round_robin_is_deterministic_and_order_preserving(self):
        shards = shard_tasks(7, 3)
        assert shards == [[0, 3, 6], [1, 4], [2, 5]]
        assert shard_tasks(7, 3) == shards  # pure function of the grid

    def test_more_jobs_than_tasks(self):
        shards = shard_tasks(2, 8)
        assert shards == [[0], [1]]

    def test_groups_stay_on_one_shard_in_grid_order(self):
        groups = ["a", "b", "a", "c", "b", "a"]
        shards = shard_tasks(6, 2, groups=groups)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(6))
        for shard in shards:
            assert shard == sorted(shard)
        placement = {}
        for number, shard in enumerate(shards):
            for index in shard:
                placement[groups[index]] = \
                    placement.get(groups[index], number)
                assert placement[groups[index]] == number

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_tasks(4, 0)
        with pytest.raises(ValueError):
            shard_tasks(4, 2, groups=["only-three", "keys", "here"])


class TestPoolDeathRecovery:
    def test_dead_workers_degrade_to_serial_with_results(self, capfd):
        """Every worker dying breaks the pool; the sweep must still
        complete serially with correct results and say why."""
        results = parallel_map(_die_in_workers,
                               [(os.getpid(), v) for v in range(5)],
                               jobs=2, compile_cache=False)
        assert results == [0, 2, 4, 6, 8]
        captured = capfd.readouterr()
        assert "degraded to serial" in captured.err

    def test_broken_pool_constructor_degrades_to_serial(self, capfd,
                                                        monkeypatch):
        """A pool that cannot even start (no semaphores, sandboxed
        fork) is absorbed the same way."""
        import repro.evaluation.parallel as parallel_module

        def broken(*args, **kwargs):
            raise OSError("no POSIX semaphores here")

        monkeypatch.setattr(parallel_module, "_run_pool", broken)
        results = parallel_map(_die_in_workers,
                               [(os.getpid(), v) for v in range(3)],
                               jobs=2, compile_cache=False)
        assert results == [0, 2, 4]
        assert "degraded to serial" in capfd.readouterr().err

    def test_task_failures_surface_lowest_index_first(self):
        """Task exceptions are not crashes: the pool finishes the
        shard and re-raises the lowest failing index with the worker
        traceback."""
        with pytest.raises(EvaluationTaskError) as excinfo:
            parallel_map(_fail_on_odd, [(v,) for v in range(6)],
                         jobs=2, compile_cache=False)
        assert excinfo.value.index == 1
        assert "odd input 1" in str(excinfo.value)

    def test_run_grid_survives_broken_pool_bit_identically(
            self, tmp_path, capfd, monkeypatch):
        """run_grid over a broken pool returns outcomes bit-identical
        to the serial engine."""
        points = [GridPoint.make("trmm", FTYPE, n, backend="mpfr",
                                 engine="jit") for n in (4, 5)]
        serial = run_grid(points, jobs=1,
                          cache_dir=str(tmp_path / "cache"))

        import repro.evaluation.parallel as parallel_module

        def broken(*args, **kwargs):
            raise OSError("pool unavailable")

        monkeypatch.setattr(parallel_module, "_run_pool", broken)
        degraded = run_grid(points, jobs=2,
                            cache_dir=str(tmp_path / "cache"))
        assert "degraded to serial" in capfd.readouterr().err
        for reference, outcome in zip(serial, degraded):
            assert values_digest([reference.value]
                                 + list(reference.outputs)) == \
                values_digest([outcome.value] + list(outcome.outputs))
            assert reference.report.cycles == outcome.report.cycles


class TestWorkerRuntimeInit:
    """init_worker_runtime sets up each sweep shard; its installs must
    be observable and reversible."""

    def test_installs_compile_cache(self, tmp_path):
        previous = get_compile_cache()
        try:
            init_worker_runtime(str(tmp_path / "store"), True, None)
            cache = get_compile_cache()
            assert isinstance(cache, CompileCache)
            assert str(cache.directory) == str(tmp_path / "store")
        finally:
            set_compile_cache(previous)

    def test_cache_disabled_installs_none(self, tmp_path):
        previous = get_compile_cache()
        try:
            init_worker_runtime(str(tmp_path / "store"), False, None)
            assert get_compile_cache() is None
        finally:
            set_compile_cache(previous)

    def test_ledger_install(self, tmp_path):
        previous_cache = get_compile_cache()
        previous_ledger = current_ledger()
        try:
            path = tmp_path / "ledger.jsonl"
            init_worker_runtime(str(tmp_path / "store"), True,
                                str(path))
            ledger = current_ledger()
            assert ledger is not None
            assert ledger.path == str(path)
        finally:
            set_compile_cache(previous_cache)
            install_ledger(previous_ledger)
