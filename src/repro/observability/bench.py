"""``vpfloat-bench``: pinned-suite benchmark runner over the run ledger.

Replays a fixed benchmark suite -- same kernels, sizes, backends, and
engines every time -- and appends one ``bench`` ledger record per
repetition, so consecutive runs of this tool produce directly
comparable JSONL artifacts.  Pair it with ``vpfloat-stats compare`` (or
``--baseline`` here, which runs the same comparison in-process) to gate
changes on noise-aware regressions:

* model metrics (cycles, instructions, mpfr_calls, llc_misses,
  dram_bytes) are bit-reproducible, so they gate exactly on the median;
* wall time gates on median-of-k with a MAD allowance, and only when
  both ledgers come from the same host.

Exit codes: 0 clean, 1 usage/IO error, 3 regression against
``--baseline`` -- the CI perf gate keys off 3.

Usage::

    vpfloat-bench --quick --ledger results/pr_ledger.jsonl
    vpfloat-bench --quick --baseline results/baseline_ledger.jsonl
    vpfloat-bench --quick --flamegraph gemm.collapsed

(equivalently ``python -m repro.observability.bench ...``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import List, Optional, Tuple

MPFR = "vpfloat<mpfr, 16, 128>"
UNUM = "vpfloat<unum, 3, 6>"

#: One pinned case: (kernel, ftype, n, backend, engine).
#: The suite is the contract between a baseline ledger and every later
#: candidate -- append cases rather than editing existing ones, or the
#: comparison loses its overlap.
Case = Tuple[str, str, int, str, Optional[str]]

FULL_SUITE: List[Case] = [
    ("gemm", MPFR, 8, "mpfr", "jit"),
    ("jacobi-1d", MPFR, 24, "mpfr", "jit"),
    ("jacobi-1d", MPFR, 24, "mpfr", "legacy"),
    ("atax", MPFR, 12, "mpfr", "jit"),
    ("gemm", UNUM, 6, "unum", None),
]

QUICK_SUITE: List[Case] = [
    ("gemm", MPFR, 6, "mpfr", "jit"),
    ("jacobi-1d", MPFR, 12, "mpfr", "jit"),
    ("gemm", UNUM, 4, "unum", None),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfloat-bench",
        description="Replay the pinned vpfloat benchmark suite into a "
                    "run ledger; optionally gate against a baseline.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small-size suite (CI-friendly, ~seconds)")
    parser.add_argument("--reps", type=int, default=3, metavar="K",
                        help="repetitions per case; compare gates on "
                             "the median of K (default 3)")
    parser.add_argument("--ledger", default="vpfloat_ledger.jsonl",
                        metavar="FILE",
                        help="JSONL ledger to append to "
                             "(default vpfloat_ledger.jsonl)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="baseline ledger; exit 3 if this run "
                             "regresses against it")
    parser.add_argument("--flamegraph", metavar="FILE",
                        help="also write a collapsed-stack flamegraph "
                             "of the suite's gemm case (speedscope/"
                             "flamegraph.pl compatible)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="compile-cache directory (default: a "
                             "throwaway temp dir, so timings include "
                             "one cold compile per program)")
    parser.add_argument("--wall-mad-factor", type=float, default=5.0)
    parser.add_argument("--wall-rel-floor", type=float, default=0.10)
    parser.add_argument("--gate-wall", choices=("auto", "on", "off"),
                        default="auto",
                        help="gate wall_seconds (auto: only when both "
                             "ledgers share a host: hostname, platform, "
                             "CPU count and Python version)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    parser.add_argument("--list", action="store_true",
                        help="print the pinned suite and exit")
    return parser


def _run_case(case: Case, reps: int, ledger) -> dict:
    """Execute one pinned case ``reps`` times; one ``bench`` record
    per rep (so compare sees a median-of-k sample set), returns the
    last rep's summary row."""
    from ..evaluation.harness import run_kernel
    from .ledger import report_fields

    kernel, ftype, n, backend, engine = case
    row = {}
    for rep in range(reps):
        wall0 = time.perf_counter()
        outcome = run_kernel(kernel, ftype, n, backend=backend,
                             engine=engine, read_outputs=False)
        wall = time.perf_counter() - wall0
        fields = dict(kernel=kernel, ftype=ftype, n=n, backend=backend,
                      engine=engine, rep=rep,
                      wall_seconds=wall, **report_fields(outcome.report))
        ledger.record("bench", **fields)
        row = fields
    return row


def _write_flamegraph(path: str, quick: bool) -> None:
    """Profile the suite's mpfr gemm case with the exact IR
    profiler and write its collapsed stacks."""
    from ..core import CompilerDriver
    from ..workloads.polybench import source_for
    from .profile import profile_run

    n = 6 if quick else 8
    driver = CompilerDriver(backend="mpfr")
    program = driver.compile(source_for("gemm", MPFR), name="gemm-bench")
    profile = profile_run(program, "run", [n])
    profile.write_collapsed(path)
    print(f"flamegraph: wrote {len(profile.stacks)} stacks to {path}")


def _gate(baseline_path: str, candidate_path: str,
          args: argparse.Namespace) -> int:
    from .ledger import compare_ledgers, read_ledger

    try:
        baseline, base_problems = read_ledger(baseline_path)
    except OSError as error:
        print(f"vpfloat-bench: cannot read baseline: {error}",
              file=sys.stderr)
        return 1
    candidate, cand_problems = read_ledger(candidate_path)
    for label, problems in (("baseline", base_problems),
                            ("candidate", cand_problems)):
        if problems:
            print(f"vpfloat-bench: skipped {len(problems)} bad "
                  f"{label} line(s)", file=sys.stderr)
    gate_wall = {"auto": None, "on": True, "off": False}[args.gate_wall]
    regressions, improvements, compared, skipped = compare_ledgers(
        baseline, candidate,
        wall_mad_factor=args.wall_mad_factor,
        wall_rel_floor=args.wall_rel_floor,
        gate_wall=gate_wall)
    print(f"compare vs {baseline_path}: {compared} metric(s) compared, "
          f"{len(improvements)} improved, {len(regressions)} regressed"
          + (f", {len(skipped)} skipped" if skipped else ""))
    for regression in regressions:
        print(f"  REGRESSION {regression.render()}")
    return 3 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    suite = QUICK_SUITE if args.quick else FULL_SUITE
    if args.list:
        for case in suite:
            kernel, ftype, n, backend, engine = case
            print(f"{kernel:<12} {ftype:<24} n={n:<4} {backend:<5} "
                  f"engine={engine or '-'}")
        return 0
    if args.reps < 1:
        print("vpfloat-bench: --reps must be >= 1", file=sys.stderr)
        return 1

    from ..core.cache import CompileCache
    from ..evaluation.harness import set_compile_cache
    from .ledger import ledger_session

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="vpbench-")
    rows = []
    with ledger_session(args.ledger) as ledger:
        previous_cache = set_compile_cache(CompileCache(cache_dir))
        try:
            for case in suite:
                row = _run_case(case, args.reps, ledger)
                rows.append(row)
                if not args.json:
                    print(f"{row['kernel']:<12} n={row['n']:<4} "
                          f"{row['backend']:<5} "
                          f"engine={row['engine'] or '-':<7} "
                          f"cycles={row['cycles']:<12} "
                          f"wall={row['wall_seconds']:.3f}s")
        finally:
            set_compile_cache(previous_cache)
        written = ledger.records_written
    if args.json:
        print(json.dumps({"suite": "quick" if args.quick else "full",
                          "reps": args.reps, "ledger": args.ledger,
                          "records": written, "cases": rows},
                         sort_keys=True))
    else:
        print(f"ledger: appended {written} record(s) to {args.ledger}")

    if args.flamegraph:
        _write_flamegraph(args.flamegraph, args.quick)
    if args.baseline:
        return _gate(args.baseline, args.ledger, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
