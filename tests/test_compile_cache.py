"""Persistent compile cache: fingerprint invalidation + disk roundtrip."""

import pickle

import pytest

from repro.core import (
    CompileCache,
    CompileOptions,
    CompilerDriver,
    compile_source,
    default_cache_dir,
)
from repro.workloads.polybench import source_for

SOURCE = source_for("gemm", "vpfloat<mpfr, 16, 128>")


class TestFingerprint:
    def test_identical_inputs_identical_key(self):
        a = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        b = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        assert a == b

    def test_source_change_invalidates(self):
        base = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        edited = CompileCache.fingerprint(SOURCE + "\n", CompileOptions(),
                                          "m")
        assert base != edited

    def test_vpfloat_attr_change_invalidates(self):
        # The attributes live in the source text, so a precision bump
        # is a source change and must miss.
        other = source_for("gemm", "vpfloat<mpfr, 16, 256>")
        assert CompileCache.fingerprint(SOURCE, CompileOptions(), "m") != \
            CompileCache.fingerprint(other, CompileOptions(), "m")

    def test_backend_and_pass_options_invalidate(self):
        base = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        for options in (CompileOptions(backend="boost"),
                        CompileOptions(opt_level=0),
                        CompileOptions(polly=True),
                        CompileOptions(polly=True, polly_tile=8),
                        CompileOptions(contract_fma=True),
                        CompileOptions(reuse_objects=False),
                        CompileOptions(specialize_scalars=False),
                        CompileOptions(in_place_stores=False)):
            assert CompileCache.fingerprint(SOURCE, options, "m") != base

    def test_module_name_invalidates(self):
        assert CompileCache.fingerprint(SOURCE, CompileOptions(), "a") != \
            CompileCache.fingerprint(SOURCE, CompileOptions(), "b")


class TestCacheTiers:
    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        program = compile_source(SOURCE, backend="mpfr")
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.stats.memory_hits == 1

    def test_disk_roundtrip_bit_identical(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        program = compile_source(SOURCE, backend="mpfr")
        baseline = program.run("run", [4])
        cache.put("k", program)
        cache._memory.clear()  # force the disk tier
        restored = cache.get("k")
        assert restored is not program
        assert cache.stats.disk_hits == 1
        rerun = restored.run("run", [4])
        assert rerun.value == baseline.value
        assert rerun.report.cycles == baseline.report.cycles
        assert dict(rerun.report.by_category) == \
            dict(baseline.report.by_category)

    def test_lru_eviction(self):
        cache = CompileCache(memory_slots=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_corrupted_entry_is_miss_and_unlinked(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        cache.put("k", compile_source("int f() { return 1; }",
                                      backend="none"))
        path = cache._path("k")
        path.write_bytes(b"not a pickle")
        cache._memory.clear()
        assert cache.get("k") is None
        assert cache.stats.errors == 1
        assert not path.exists()

    def test_stale_format_version_is_miss(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        path = cache._path("k")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps((-1, "whatever")))
        assert cache.get("k") is None
        assert cache.stats.errors == 1

    def test_directory_created_lazily(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cache = CompileCache(target)
        assert not target.exists()
        assert cache.get("missing") is None
        assert not target.exists()  # lookups never create it
        cache.put("k", 42)
        assert target.is_dir()
        assert list(target.glob("*.vpc"))

    def test_memory_only_cache(self):
        cache = CompileCache(None)
        cache.put("k", 7)
        assert cache.get("k") == 7
        cache._memory.clear()
        assert cache.get("k") is None  # nothing persisted

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        cache.put("k", 1)
        cache.clear()
        assert cache.get("k") is None
        assert not list((tmp_path / "c").glob("*.vpc"))


class TestDriverIntegration:
    def test_driver_hits_share_programs(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        driver = CompilerDriver(backend="mpfr", cache=cache)
        first = driver.compile(SOURCE)
        second = driver.compile(SOURCE)
        # The memory-tier hit shares the module, with no unpickle; the
        # driver hands out its own shallow copy of the program.
        assert second.module is first.module
        assert second is not first
        assert cache.stats.stores == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.disk_hits == 0

    def test_driver_accepts_path_like_cache(self, tmp_path):
        driver = CompilerDriver(backend="mpfr", cache=tmp_path / "c")
        assert isinstance(driver.cache, CompileCache)
        program = driver.compile(SOURCE)
        fresh = CompilerDriver(backend="mpfr",
                               cache=tmp_path / "c").compile(SOURCE)
        assert fresh is not program  # different process-level object...
        assert fresh.run("run", [4]).report.cycles == \
            program.run("run", [4]).report.cycles  # ...same program

    def test_cache_none_always_compiles(self):
        driver = CompilerDriver(backend="mpfr", cache=None)
        assert driver.compile(SOURCE) is not driver.compile(SOURCE)

    def test_run_kernel_compile_cache_false_means_none(self):
        from repro.evaluation.harness import run_kernel

        assert CompilerDriver(backend="mpfr", cache=False).cache is None
        uncached = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                              backend="mpfr", compile_cache=False)
        reference = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                               backend="mpfr", compile_cache=None)
        assert uncached.report.cycles == reference.report.cycles

    def test_cross_driver_disk_sharing(self, tmp_path):
        CompilerDriver(backend="mpfr",
                       cache=tmp_path / "c").compile(SOURCE)
        cache = CompileCache(tmp_path / "c")
        CompilerDriver(backend="mpfr", cache=cache).compile(SOURCE)
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 0

    def test_option_change_misses(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        CompilerDriver(backend="mpfr", cache=cache).compile(SOURCE)
        CompilerDriver(backend="mpfr", polly=True,
                       cache=cache).compile(SOURCE)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0


class TestDefaultDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("VPFLOAT_CACHE_DIR", "/somewhere/else")
        assert default_cache_dir() == "/somewhere/else"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("VPFLOAT_CACHE_DIR", raising=False)
        assert default_cache_dir().endswith("vpfloat-repro")


class TestCodegenSidecarCorruption:
    """Corrupt ``.vpcgen`` sidecars must be cache misses that unlink the
    bad file (the pickle tier's corrupt-entry policy), never a
    JSON/KeyError/TypeError propagated into a run."""

    SIDECAR_SOURCE = """
double f(int n) {
  vpfloat<mpfr, 16, 64> acc = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc + 1.5;
  }
  return acc;
}
"""

    def _first_run(self, tmp_path):
        import glob
        import os

        cache = CompileCache(tmp_path / "c")
        driver = CompilerDriver(backend="mpfr", engine="jit", cache=cache)
        value = driver.compile(self.SIDECAR_SOURCE,
                               name="sidecar").run("f", [5]).value
        sidecars = glob.glob(os.path.join(str(tmp_path / "c"),
                                          "*.vpcgen"))
        assert len(sidecars) == 1
        return value, sidecars[0]

    def _rerun(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        driver = CompilerDriver(backend="mpfr", engine="jit", cache=cache)
        result = driver.compile(self.SIDECAR_SOURCE,
                                name="sidecar").run("f", [5])
        return result.value, cache

    @pytest.mark.parametrize("garble", [
        "",                                        # truncated to nothing
        '{"version":',                             # torn JSON
        "[1, 2, 3]",                               # wrong top-level type
        '{"version": -1, "functions": {}}',        # stale version
        '{"functions": {}}',                       # missing version
    ])
    def test_unreadable_sidecar_is_miss_and_unlinked(self, tmp_path,
                                                     garble):
        import os

        value, path = self._first_run(tmp_path)
        with open(path, "w") as handle:
            handle.write(garble)
        again, cache = self._rerun(tmp_path)
        assert again == value
        assert cache.stats.errors >= 1

    def test_garbled_record_is_miss_and_unlinked(self, tmp_path):
        import json

        from repro.codegen import CODEGEN_VERSION

        value, path = self._first_run(tmp_path)
        # Valid JSON, current version -- but a function record the jit
        # engine would crash on.  Must recompile, not TypeError.
        with open(path, "w") as handle:
            json.dump({"version": CODEGEN_VERSION,
                       "functions": {"f": "garbage-not-a-dict"}}, handle)
        again, cache = self._rerun(tmp_path)
        assert again == value
        assert cache.stats.errors >= 1
        # A fresh, structurally valid sidecar was re-persisted in place.
        with open(path) as handle:
            payload = json.load(handle)
        record = payload["functions"]["f"]
        assert isinstance(record, dict)
        assert record["status"] in ("jit", "fallback")

    def test_unknown_status_is_miss(self, tmp_path):
        import json

        from repro.codegen import CODEGEN_VERSION

        value, path = self._first_run(tmp_path)
        with open(path, "w") as handle:
            json.dump({"version": CODEGEN_VERSION,
                       "functions": {"f": {"status": "wat"}}}, handle)
        again, cache = self._rerun(tmp_path)
        assert again == value
        assert cache.stats.errors >= 1

    def test_jit_record_without_source_is_miss(self, tmp_path):
        import json

        from repro.codegen import CODEGEN_VERSION

        value, path = self._first_run(tmp_path)
        with open(path, "w") as handle:
            json.dump({"version": CODEGEN_VERSION,
                       "functions": {"f": {"status": "jit",
                                           "source": None,
                                           "reason": None}}}, handle)
        again, cache = self._rerun(tmp_path)
        assert again == value
        assert cache.stats.errors >= 1


    @pytest.mark.parametrize("field, value", [
        ("code", 1234), ("code", ["00"]), ("magic", 3),
    ])
    def test_non_string_code_or_magic_rejected(self, field, value):
        from repro.core.cache import _codegen_payload_ok

        record = {"status": "jit", "source": "x = 1", "reason": None,
                  "code": "00", "magic": "00"}
        assert _codegen_payload_ok({"functions": {"f": record}})
        record[field] = value
        assert not _codegen_payload_ok({"functions": {"f": record}})
