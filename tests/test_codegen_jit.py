"""Differential tests for the specializing jit codegen engine.

Every PolyBench and RAJAPerf kernel is executed under both the ``jit``
engine (compiled Python source, :mod:`repro.codegen.pyjit`) and the
``legacy`` reference walker; outputs must be bit-identical and the
modeled cycle reports identical field by field.  Dynamic-precision
kernels exercise the per-function fallback path, and the CompileCache
round-trip checks that warm runs skip re-emission.
"""

import dataclasses
import json
import marshal
from importlib.util import MAGIC_NUMBER

import pytest

from repro.codegen.pyjit import CodegenStore, emit_function_source
from repro.core import (ENGINES, CompileCache, CompilerDriver,
                        compile_source, resolve_engine)
from repro.evaluation.harness import (_read_interpreter_outputs,
                                     read_lane_outputs)
from repro.observability import telemetry_session
from repro.runtime import Interpreter, VPRuntimeError
from repro.runtime.cost_model import CostAccounting
from repro.workloads import RAJA_KERNELS, raja_source
from repro.workloads.polybench import KERNELS, source_for

POLYBENCH_FTYPE = "vpfloat<mpfr, 16, 128>"
RAJA_FTYPE = "vpfloat<mpfr, 16, 96>"
RAJA_N = 20


def _report_fields(report):
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        "mpfr_calls": report.mpfr_calls,
        "heap_allocations": report.heap_allocations,
        "by_category": dict(report.by_category),
    }


def _assert_identical(jit, legacy):
    assert _report_fields(jit.report) == _report_fields(legacy.report)


def _whole_report(report):
    """Every CostReport field, by_category as a plain dict."""
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)}
    fields["by_category"] = dict(fields["by_category"])
    return fields


class TestPolyBenchDifferential:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_jit_matches_legacy(self, kernel):
        # One compile, both engines: instruction order out of the -O3
        # pipeline feeds the cache model, so comparing across separate
        # compiles would compare two different (equally valid) layouts.
        spec = KERNELS[kernel]
        n = spec.size_for("mini")
        program = compile_source(source_for(kernel, POLYBENCH_FTYPE),
                                 backend="mpfr")
        jit = program.run("run", [n], engine="jit")
        legacy = program.run("run", [n], engine="legacy")
        assert jit.value == legacy.value
        jit_out = _read_interpreter_outputs(
            jit.interpreter, int(jit.value), spec.outputs(n),
            POLYBENCH_FTYPE, "mpfr")
        legacy_out = _read_interpreter_outputs(
            legacy.interpreter, int(legacy.value), spec.outputs(n),
            POLYBENCH_FTYPE, "mpfr")
        assert jit_out == legacy_out
        _assert_identical(jit, legacy)


class TestRajaPerfDifferential:
    @pytest.mark.parametrize("kernel", RAJA_KERNELS)
    def test_jit_matches_legacy(self, kernel):
        source = raja_source(kernel, RAJA_FTYPE, openmp=False)
        program = compile_source(source, backend="mpfr")
        jit = program.run("run", [RAJA_N], engine="jit")
        legacy = program.run("run", [RAJA_N], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)


class TestParallelRegionAccounting:
    """The memory trace is replayed at every OpenMP region boundary, so
    region cycles and DRAM traffic are identical on every engine and
    independent of when the buffer fills."""

    @pytest.mark.parametrize("kernel", ["IF_QUAD", "STREAM_ADD"])
    def test_region_metrics_identical_across_engines(self, kernel,
                                                     monkeypatch):
        source = raja_source(kernel, RAJA_FTYPE, openmp=True)
        program = compile_source(source, backend="mpfr")
        reports = {engine: program.run("run", [RAJA_N],
                                       engine=engine).report
                   for engine in ("jit", "legacy")}
        # A three-entry buffer replays mid-region, many times over.
        monkeypatch.setattr(CostAccounting, "trace_limit", 3)
        reports["jit, tiny buffer"] = program.run(
            "run", [RAJA_N], engine="jit").report
        region = {engine: (r.parallel_cycles, r.parallel_dram_bytes,
                           r.serial_cycles)
                  for engine, r in reports.items()}
        assert len(set(region.values())) == 1, region
        parallel_cycles, parallel_dram, _ = region["legacy"]
        assert parallel_cycles > 0
        assert parallel_dram > 0
        whole = [_whole_report(r) for r in reports.values()]
        assert all(w == whole[0] for w in whole)


DYNAMIC_PREC_SRC = """
vpfloat<mpfr, 16, 256> out;

int run(int n) {
    int p = 64 + n;
    vpfloat<mpfr, 16, p> acc = 0.0;
    vpfloat<mpfr, 16, p> step = 1.25;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + step * step;
    }
    out = (vpfloat<mpfr, 16, 256>)acc;
    return n;
}
"""

MIXED_SRC = """
vpfloat<mpfr, 16, 256> out;

vpfloat<mpfr, 16, 256> scale(vpfloat<mpfr, 16, 256> x, int k) {
    vpfloat<mpfr, 16, 256> y = x;
    for (int i = 0; i < k; i = i + 1) {
        y = y * 1.5;
    }
    return y;
}

int dyn(int p, int k) {
    vpfloat<mpfr, 16, p> acc = 3.25;
    for (int i = 0; i < k; i = i + 1) {
        acc = acc / 2.0;
    }
    return p;
}

int run(int n) {
    out = scale(1.0, n);
    return dyn(96, n);
}
"""


class TestDynamicPrecisionFallback:
    """On the none backend, native vpfloat arithmetic at a runtime
    precision is not specialized: those functions fall back to the
    legacy walker.  (The mpfr and boost lowerings jit them, see
    TestRuntimePrecisionJit.)"""

    def test_dynamic_kernel_falls_back_bit_identical(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="none")
        jit = program.run("run", [6], engine="jit")
        legacy = program.run("run", [6], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)
        statuses = program._codegen_store.statuses()
        assert statuses["run"]["status"] == "fallback"
        assert statuses["run"]["reason"]

    def test_mixed_module_per_function_status(self):
        # Inlining would fold dyn(96, n) into run and constant-fold the
        # precision (making everything static); keep the calls to get
        # one jit and one fallback function in the same module.
        program = compile_source(MIXED_SRC, backend="none",
                                 enable_inlining=False)
        jit = program.run("run", [5], engine="jit")
        legacy = program.run("run", [5], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)
        statuses = program._codegen_store.statuses()
        # The static functions specialize; the dynamic-precision one
        # must fall back to the legacy walker -- per function, not per
        # module.
        assert statuses["dyn"]["status"] == "fallback"
        assert statuses["run"]["status"] == "jit"
        assert statuses["scale"]["status"] == "jit"

    def test_fallback_metrics_and_reason(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="none")
        with telemetry_session(metrics=True) as (_, registry):
            program.run("run", [4], engine="jit")
        assert registry.counters.get("codegen.functions.fallback", 0) >= 1
        assert any(k.startswith("codegen.fn.run.fallback.")
                   for k in registry.counters)

    def test_emit_rejects_dynamic_precision(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="none")
        interp = program.interpreter(engine="legacy")
        func = program.module.get_function("run")
        source, reason = emit_function_source(interp, func)
        assert source is None
        assert reason


class TestRuntimePrecisionJit:
    """Paper Algorithm 1 over the Listing 4 BLAS (the cg-dynamic
    benchmark program): every function jits on the mpfr and boost
    lowerings, and runs at runtime precisions are bit-identical to the
    legacy walker, report and all."""

    PRECISIONS = (60, 113, 257, 600, 1100)

    @pytest.fixture(scope="class")
    def cg(self, evalbench_points):
        points = evalbench_points
        matrix = points.cg_matrix()
        return points, matrix, points.cg_source(matrix)

    def _args(self, cg, prec, max_iter=4):
        points, matrix, _ = cg
        return [prec, max_iter, points.CG_TOLERANCE] + \
            points.rhs_for(matrix, seed=prec)

    @pytest.mark.parametrize("backend", ["mpfr", "boost"])
    def test_every_function_jits(self, cg, backend):
        program = CompilerDriver(backend=backend).compile(cg[2], "cg")
        with telemetry_session(metrics=True) as (_, registry):
            program.run("cg", self._args(cg, 128))
        statuses = program._codegen_store.statuses()
        assert statuses
        assert {s["status"] for s in statuses.values()} == {"jit"}, \
            statuses
        assert registry.counters.get("codegen.functions.fallback", 0) == 0

    @pytest.mark.parametrize("backend", ["mpfr", "boost"])
    def test_runtime_precisions_match_legacy(self, cg, backend):
        points = cg[0]
        program = CompilerDriver(backend=backend).compile(cg[2], "cg")
        for prec in self.PRECISIONS:
            runs = {engine: program.run("cg", self._args(cg, prec),
                                        engine=engine)
                    for engine in ("jit", "legacy")}
            outputs = {
                engine: [points.canonical(v) for v in read_lane_outputs(
                    run.interpreter, int(run.value), points.CG_N + 1,
                    f"vpfloat<mpfr, 16, {prec}>", backend)]
                for engine, run in runs.items()}
            assert outputs["jit"] == outputs["legacy"], prec
            assert _whole_report(runs["jit"].report) == \
                _whole_report(runs["legacy"].report), prec

    @pytest.mark.parametrize("backend", ["mpfr", "boost"])
    def test_out_of_range_precision_same_error(self, cg, backend):
        program = CompilerDriver(backend=backend).compile(cg[2], "cg")
        messages = {}
        for engine in ("jit", "legacy"):
            with pytest.raises(VPRuntimeError) as info:
                program.run("cg", self._args(cg, 20000), engine=engine)
            messages[engine] = str(info.value)
        assert messages["jit"] == messages["legacy"]
        assert "precision" in messages["jit"]


class TestCodegenCacheRoundTrip:
    def test_warm_run_skips_reemission(self, tmp_path):
        source = raja_source("DAXPY", RAJA_FTYPE, openmp=False)
        results = []
        span_args = []
        for _ in range(2):
            with telemetry_session(trace=True) as (tracer, _):
                driver = CompilerDriver(backend="mpfr",
                                        cache=str(tmp_path))
                program = driver.compile(source, "daxpy")
                results.append(program.run("run", [RAJA_N]))
            span_args.append([
                e["args"] for e in tracer.events
                if e.get("name", "").startswith("codegen:")
            ])
        cold, warm = span_args
        assert cold and not any(a.get("cached") for a in cold)
        assert warm and all(a.get("cached") for a in warm)
        assert results[0].value == results[1].value
        assert results[0].report.cycles == results[1].report.cycles
        sidecars = list(tmp_path.glob("*.vpcgen"))
        assert sidecars

    def test_stale_sidecar_version_is_dropped(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.put_codegen("k1", {"version": -1, "functions": {}})
        assert cache.get_codegen("k1") is None
        assert not list(tmp_path.glob("k1.vpcgen"))

    def test_fingerprint_varies_with_engine(self):
        options = CompilerDriver(backend="mpfr").options
        keys = {
            CompileCache.fingerprint("int run() { return 0; }", options,
                                     engine=engine)
            for engine in (None, "jit", "legacy")
        }
        assert len(keys) == 3


class TestPersistedCodeObjects:
    """``.vpcgen`` jit records carry the marshalled code object: a warm
    run loads it instead of compiling the source, and a record it
    cannot trust falls back to ``compile(source)`` with the same
    values and report."""

    SOURCE = raja_source("DAXPY", RAJA_FTYPE, openmp=False)

    def _run(self, cache_dir):
        with telemetry_session(metrics=True) as (_, registry):
            driver = CompilerDriver(backend="mpfr", cache=str(cache_dir))
            result = driver.compile(self.SOURCE, "daxpy").run(
                "run", [RAJA_N])
        return result, registry

    def _jit_records(self, cache_dir):
        (path,) = cache_dir.glob("*.vpcgen")
        payload = json.loads(path.read_text())
        records = [r for r in payload["functions"].values()
                   if r["status"] == "jit"]
        assert records
        return path, payload, records

    def test_warm_run_loads_code_objects(self, tmp_path):
        cold, cold_metrics = self._run(tmp_path)
        _, _, records = self._jit_records(tmp_path)
        for record in records:
            assert record["magic"] == MAGIC_NUMBER.hex()
            assert isinstance(record["code"], str)
        assert cold_metrics.counter("codegen.code.compiled") == \
            len(records)
        assert cold_metrics.counter("codegen.code.loaded") == 0
        warm, warm_metrics = self._run(tmp_path)
        assert warm_metrics.counter("codegen.code.loaded") == len(records)
        assert warm_metrics.counter("codegen.code.compiled") == 0
        assert warm.value == cold.value
        assert _whole_report(warm.report) == _whole_report(cold.report)

    @pytest.mark.parametrize("reason, tamper", [
        ("magic", lambda record: record.update(magic="00000000")),
        ("magic", lambda record: record.pop("magic")),
        ("garbled", lambda record: record.update(code="not hex")),
        ("garbled", lambda record: record.update(
            code=record["code"][:len(record["code"]) // 4 * 2])),
        ("not-code", lambda record: record.update(
            code=marshal.dumps(("not", "code")).hex())),
    ])
    def test_untrusted_code_falls_back_to_source(self, tmp_path, reason,
                                                 tamper):
        cold, _ = self._run(tmp_path)
        path, payload, records = self._jit_records(tmp_path)
        for record in records:
            tamper(record)
        path.write_text(json.dumps(payload))
        warm, metrics = self._run(tmp_path)
        assert metrics.counter(f"codegen.code.rejected.{reason}") == \
            len(records)
        assert metrics.counter("codegen.code.compiled") == len(records)
        assert metrics.counter("codegen.code.loaded") == 0
        assert warm.value == cold.value
        assert _whole_report(warm.report) == _whole_report(cold.report)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            CompilerDriver(backend="mpfr", engine="fused")

    def test_closure_engine_is_gone(self):
        program = compile_source("int f() { return 1; }", backend="none")
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Interpreter(program.module, dispatch="fast")
        with pytest.raises(ValueError, match="unknown engine"):
            program.run("f", [], engine="fast")

    @pytest.mark.parametrize("backend", ["none", "mpfr", "boost"])
    def test_jit_is_every_interpreter_backends_default(self, backend):
        assert ENGINES == ("jit", "legacy")
        assert resolve_engine(None, backend) == "jit"
        program = compile_source("int f() { return 1; }", backend=backend)
        assert program.interpreter().dispatch == "jit"

    def test_profile_runs_use_closure_tables(self):
        # Opcode-level profiling needs per-instruction dispatch; the
        # jit mode transparently runs profiled calls on the legacy
        # walker.
        program = compile_source(MIXED_SRC, backend="mpfr")
        result = program.run("run", [3], engine="jit", profile=True)
        baseline = program.run("run", [3], engine="legacy")
        assert result.profile is not None
        assert result.value == baseline.value
        assert result.report.cycles == baseline.report.cycles

    def test_in_memory_store_reused_across_runs(self):
        program = compile_source(MIXED_SRC, backend="mpfr")
        program.run("run", [3])
        store = program._codegen_store
        assert isinstance(store, CodegenStore)
        program.run("run", [4])
        assert program._codegen_store is store
        assert store.statuses()["run"]["status"] == "jit"
