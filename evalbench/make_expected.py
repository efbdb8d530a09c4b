"""Regenerate ``expected.json``, the output oracle of the grid workloads.

For every ``evalgrid-cold`` and ``evalgrid-warm`` point it stores:

* ``digest``: a SHA-256 over the exact output values computed by an
  independent configuration -- the ``none`` backend (vpfloat stays
  first-class, no mpfr/boost lowering), -O0 (no passes, no Polly) on the
  ``legacy`` engine.  Unum points are referenced at the coprocessor's
  512-bit working precision (:data:`points.UNUM_REFERENCE_TYPE`);
* ``cycles``, ``llc_misses``, ``dram_bytes``, ``mpfr_calls``: the exact
  model metrics of the point's own configuration at the commit that
  generated the file (compiled without a compile cache, so the known
  cache-write defect cannot hide them).

It refuses to write the file if a configuration's outputs disagree with
the reference, unless that mismatch is a recorded known defect
(:data:`points.KNOWN_DEFECTS`).  Run from the repository root::

    python3 evalbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import points  # noqa: E402
from repro.evaluation.harness import run_kernel  # noqa: E402


def main() -> int:
    grid = {p.key: p for p in points.cold_grid() + points.warm_grid()}
    references = {}
    entries = {}
    mismatches = []
    started = time.perf_counter()
    for key in sorted(grid):
        point = grid[key]
        ref_id = (point.kernel, point.reference_ftype, point.n)
        if ref_id not in references:
            reference = run_kernel(point.kernel, point.reference_ftype,
                                   point.n, backend="none", opt_level=0,
                                   engine="legacy", compile_cache=None)
            references[ref_id] = points.digest(reference.outputs)
        outcome = run_kernel(point.kernel, point.ftype, point.n,
                             backend=point.backend, polly=point.polly,
                             compile_cache=None)
        known = point.known_defect
        if points.digest(outcome.outputs) != references[ref_id] and \
                not (known and known[0] == "mismatch"):
            mismatches.append(key)
        entries[key] = {"digest": references[ref_id],
                        **points.model_metrics(outcome.report)}
        print(f"{key}: {time.perf_counter() - started:.1f} s", flush=True)
    if mismatches:
        print("outputs differ from the reference: " + ", ".join(mismatches),
              file=sys.stderr)
        return 1
    with open(points.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"reference": "backend=none opt_level=0 engine=legacy",
                   "points": entries}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
