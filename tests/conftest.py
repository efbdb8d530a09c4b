"""Shared test fixtures.

The persistent compile cache honours ``VPFLOAT_CACHE_DIR``; tests are
redirected into a per-session temporary directory so runs stay hermetic
(nothing is written to, or read from, the user's real cache).
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_compile_cache(tmp_path_factory, monkeypatch):
    cache_dir = tmp_path_factory.getbasetemp() / "vpfloat-cache"
    monkeypatch.setenv("VPFLOAT_CACHE_DIR", str(cache_dir))


@pytest.fixture(scope="session")
def evalbench_points():
    """The benchmark's workload module, for its CG program."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "evalbench" / "points.py"
    spec = importlib.util.spec_from_file_location("evalbench_points", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
