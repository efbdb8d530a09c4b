"""Whole-evaluation-point benchmark of the vpfloat compiler.

Runs one workload in a closed loop (one point at a time, one process,
no worker pool), checks every point against the committed oracle, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python3 evalbench/run.py --workload evalgrid-cold --seed 1 --seconds 10
    python3 evalbench/run.py --workload cg-dynamic --seed 1 --trace 1
    python3 evalbench/run.py --list [--workload NAME] [--seed N]

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
point both untraced and traced and reports the per-layer metrics and
the tracing overhead (see ``NOTES.md`` and ``BENCHMARK.json``).  The
measured phase runs whole rounds over the workload's points, at least
MIN_ROUNDS and more until ``--seconds`` have passed, so every run
measures the same point mix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".evalbench-work"
TRACE_OUT = ROOT / ".evalbench-out"

#: A point still running after this long is killed and counted failed.
POINT_TIMEOUT = 30.0
#: Rounds an end-to-end run makes at least; every execution of a point
#: is one sample.
MIN_ROUNDS = 2

#: Reported times are CPU time of the process doing the work (the
#: workloads are single-threaded and CPU-bound, so on an idle machine it
#: equals wall time), rescaled to a reference machine speed: multiplied
#: by PROBE_REFERENCE / the CPU time of speed_probe(), which runs before
#: every point and around every set-up repeat.  On a shared host the
#: CPU's speed drifts by up to 2x over seconds; the probe drifts with it,
#: and the rescaled times of identical runs spread a quarter as much as
#: the raw ones (NOTES.md).  1.5 ms is the probe's time on the host the
#: benchmark was tuned on.
clock = time.process_time
PROBE_REFERENCE = 0.0015


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


_PROBE_NODES = [_Node(i % 4, i % 13, (i * 7) % 13) for i in range(64)]


def speed_probe() -> float:
    """CPU seconds of a fixed piece of interpreter-like Python work
    (slot reads, dict traffic, 128-bit integer arithmetic) that uses
    nothing from the program under test."""
    started = clock()
    env = {}
    x = (1 << 127) + 99
    mask = (1 << 128) - 1
    for _ in range(60):
        for node in _PROBE_NODES:
            a = env.get(node.a, x)
            b = env.get(node.b, node.op + 1)
            if node.op == 0:
                value = (a * b) >> 64
            elif node.op == 1:
                value = a + b
            elif node.op == 2:
                value = a - b if a > b else b - a
            else:
                value = (a ^ b) | 1
            env[node.a] = value & mask
    return clock() - started


def probe_mean() -> float:
    return statistics.mean(speed_probe() for _ in range(5))


class PointTimeout(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 leaves 10 above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextmanager
def point_timeout(seconds: float):
    def expire(signum, frame):
        raise PointTimeout(f"point exceeded {seconds:.0f} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def error_name(exc: BaseException) -> str:
    return "timeout" if isinstance(exc, PointTimeout) else type(exc).__name__


class CompileTimer:
    """CPU time of every CompilerDriver.compile call (both run modes:
    compile_s is an end-to-end metric)."""

    def __init__(self, driver_class):
        self.driver_class = driver_class
        self.seconds = []

    @contextmanager
    def installed(self):
        cls = self.driver_class
        original = cls.__dict__["compile"]
        seconds = self.seconds

        def compile(driver, *args, **kwargs):
            started = clock()
            try:
                return original(driver, *args, **kwargs)
            finally:
                seconds.append(clock() - started)

        cls.compile = compile
        try:
            yield
        finally:
            cls.compile = original

    def take(self) -> float:
        total = sum(self.seconds)
        self.seconds.clear()
        return total


def run_in_child(body, timeout: float):
    """Run ``body()`` in a forked child; -> (payload, error).

    Each cold point gets a process that has imported everything but run
    nothing, so no point inherits another's warm state.  The child is
    killed after ``timeout`` seconds and always reaped."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            data = pickle.dumps(body())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return None, "timeout"
    if not chunks:
        return None, "ChildExited"
    return pickle.loads(b"".join(chunks)), None


# ----------------------------------------------------------------- #
# Workloads
# ----------------------------------------------------------------- #

class Workload:
    """One workload: set-up, the points of each round, and one point.

    ``run_point`` returns a dict with ``seconds`` (timed region),
    ``compile_seconds``, ``error`` (None or a failure class) and
    whatever ``check`` needs, which runs after the measured phase."""

    #: Set-up runs this many times; setup_s reports the median.
    setup_repeats = 3

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self, repeat: int) -> None:
        pass

    def points(self, seed: int) -> list:
        """The workload's points; every round runs them all, reordered."""
        raise NotImplementedError

    def run_point(self, point, recorder) -> dict:
        raise NotImplementedError

    def check(self, point, result: dict) -> str:
        raise NotImplementedError

    def compile_seconds(self, ok_results, scale: float) -> list:
        """compile_s samples in reference-speed seconds."""
        return [r["compile_seconds"] * scale for r in ok_results]


class GridWorkload(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.expected = ctx.points.load_expected()

    def _grid_point(self, point, cache, recorder) -> dict:
        from repro.evaluation.harness import run_kernel

        ctx = self.ctx
        result = {"seconds": None, "compile_seconds": None, "error": None,
                  "probe": speed_probe()}
        ctx.compile_timer.take()
        try:
            with point_timeout(POINT_TIMEOUT), \
                    ctx.tracing.tracing(recorder, ctx.point_counter):
                started = clock()
                outcome = run_kernel(point.kernel, point.ftype, point.n,
                                     backend=point.backend,
                                     polly=point.polly,
                                     compile_cache=cache)
                result["seconds"] = clock() - started
        except Exception as exc:
            result["error"] = error_name(exc)
            return result
        finally:
            result["compile_seconds"] = ctx.compile_timer.take()
        result["digest"] = ctx.points.digest(outcome.outputs)
        result["metrics"] = ctx.points.model_metrics(outcome.report)
        return result

    def check(self, point, result: dict) -> str:
        return self.ctx.points.check_grid_point(
            self.expected, point, result["digest"], result["metrics"])


class ColdWorkload(GridWorkload):
    """Each point compiles into a fresh, empty compile cache in a fresh
    (forked) process, then executes and reads its outputs."""

    def points(self, seed):
        return self.ctx.points.cold_grid()

    def run_point(self, point, recorder):
        from repro.core import CompileCache

        ctx = self.ctx
        directory = ctx.work / f"cold-{ctx.point_counter}"

        def body():
            local = None
            if recorder is not None:
                local = ctx.tracing.Recorder()
            result = self._grid_point(point, CompileCache(str(directory)),
                                      local)
            if local is not None:
                result["trace"] = local.take()
            return result

        try:
            payload, error = run_in_child(body, POINT_TIMEOUT + 5)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if error is not None:
            return {"seconds": None, "compile_seconds": None,
                    "error": error}
        if recorder is not None and "trace" in payload:
            recorder.merge(payload.pop("trace"))
        return payload


class WarmWorkload(GridWorkload):
    """Every point's program is a cache hit on a compile cache filled in
    set-up; the memory tier is off, so each compile unpickles the program
    and the jit compiles the cached sidecar source."""

    def setup(self, repeat):
        from repro.core import CompileCache
        from repro.evaluation.harness import run_kernel

        points = self.ctx.points
        directory = self.ctx.work / f"warm-cache-{repeat}"
        cache = CompileCache(str(directory))
        for point in points.warm_grid():
            # The small cold sizes suffice to emit the jit sidecars.  A
            # point that cannot be cached fails later, in the measured
            # phase, where it is counted.
            try:
                run_kernel(point.kernel, point.ftype,
                           points.cold_size(point.kernel),
                           backend=point.backend, polly=point.polly,
                           compile_cache=cache)
            except Exception:
                pass
        self.cache = CompileCache(str(directory), memory_slots=0)

    def points(self, seed):
        return self.ctx.points.warm_grid()

    def run_point(self, point, recorder):
        return self._grid_point(point, self.cache, recorder)


class CGWorkload(Workload):
    """Algorithm 1 compiled once per backend in set-up; each point is one
    solve at a seeded runtime precision and right-hand side."""

    #: Set-up is cheap here, and its compiles are compile_s's samples.
    setup_repeats = 7

    def __init__(self, ctx):
        super().__init__(ctx)
        points = ctx.points
        self.matrix = points.cg_matrix()
        self.source = points.cg_source(self.matrix)
        self.setup_compiles = []
        #: Oracle solves, one per point (rounds repeat points).
        self.references = {}

    def setup(self, repeat):
        from repro.core import CompilerDriver

        points = self.ctx.points
        self.programs = {}
        compiles = []
        for backend in points.CG_BACKENDS:
            started = clock()
            program = CompilerDriver(backend=backend).compile(
                self.source, name="cg")
            compiles.append(clock() - started)
            # One short solve settles the jit's per-function decisions,
            # a one-time cost like the compile itself.
            program.run("cg", [64, 1, points.CG_TOLERANCE] +
                        [1.0] * points.CG_N)
            self.programs[backend] = program
        self.setup_compiles.append(statistics.mean(compiles))

    def points(self, seed):
        return self.ctx.points.cg_points(seed)

    def run_point(self, point, recorder):
        from repro.evaluation.harness import read_lane_outputs

        points = self.ctx.points
        program = self.programs[point.backend]
        args = points.cg_args(self.matrix, point)
        result = {"seconds": None, "compile_seconds": None, "error": None,
                  "probe": speed_probe()}
        try:
            with point_timeout(POINT_TIMEOUT), \
                    self.ctx.tracing.tracing(recorder,
                                             self.ctx.point_counter):
                started = clock()
                run = program.run("cg", args)
                outputs = read_lane_outputs(
                    run.interpreter, int(run.value), points.CG_N + 1,
                    point.ftype, point.backend)
                result["seconds"] = clock() - started
        except Exception as exc:
            result["error"] = error_name(exc)
            return result
        result["outputs"] = outputs
        return result

    def check(self, point, result):
        return self.ctx.points.check_cg_point(self.matrix, point,
                                              result["outputs"],
                                              self.references)

    def compile_seconds(self, ok_results, scale):
        # The program compiles only in set-up: one sample per repeat,
        # the mean over the backends, rescaled like that repeat.
        return [seconds * setup_scale for seconds, setup_scale
                in zip(self.setup_compiles, self.ctx.setup_scales)]


WORKLOAD_CLASSES = {"evalgrid-cold": ColdWorkload,
                    "evalgrid-warm": WarmWorkload,
                    "cg-dynamic": CGWorkload}


# ----------------------------------------------------------------- #
# Measurement
# ----------------------------------------------------------------- #

class Context:
    """What the workloads share: modules, work directory, counters."""

    def __init__(self, points, tracing, work: Path, compile_timer):
        self.points = points
        self.tracing = tracing
        self.work = work
        self.compile_timer = compile_timer
        self.point_counter = 0
        #: Reference-speed scale of each set-up repeat.
        self.setup_scales = []



def measure(ctx, workload, seed: int, seconds: float, trace: bool):
    """Rounds over the workload's points, each round in a new seeded
    order, until ``seconds`` have passed and at least MIN_ROUNDS rounds
    are done (one round with ``trace``, where each point runs both
    untraced and traced).  Outputs are checked after the last round."""
    base = workload.points(seed)
    recorder = ctx.tracing.Recorder() if trace else None
    # Traced and untraced go first in turn: the second execution of a
    # point runs on the first one's warm allocator and caches.
    modes = ((None, recorder), (recorder, None)) if trace else ((None,),)
    min_rounds = 1 if trace else MIN_ROUNDS
    executions = []
    rounds = 0
    started = time.perf_counter()
    with ctx.compile_timer.installed():
        while rounds < min_rounds or \
                time.perf_counter() - started < seconds:
            for index, point in enumerate(
                    ctx.points.shuffled(base, seed, rounds)):
                for mode in modes[index % len(modes)]:
                    ctx.point_counter += 1
                    result = workload.run_point(point, mode)
                    executions.append((point, result, mode is not None))
            rounds += 1
    for point, result, _traced in executions:
        if result["error"] is None:
            mismatch = workload.check(point, result)
            if mismatch:
                result["error"] = "mismatch"
                result["detail"] = mismatch
    return executions, rounds, recorder


def known_mismatch(point) -> bool:
    """A mismatch recorded as a known defect counts as a failed point
    but does not make the run incorrect."""
    known = getattr(point, "known_defect", None)
    return known is not None and known[0] == "mismatch"


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(workload, executions, setup_s, scale):
    """End-to-end metrics over every correct execution; ``scale``
    converts CPU seconds to reference-speed seconds."""
    ok = [r for _p, r, _t in executions if r["error"] is None]
    seconds = [r["seconds"] * scale for r in ok]
    compiles = workload.compile_seconds(ok, scale)
    return {
        "points_per_s": (len(seconds) / sum(seconds) if seconds else 0.0,
                         "points/s"),
        "point_s.p50": (percentile(seconds, 0.5) if seconds else 0.0, "s"),
        "point_s.p90": (percentile(seconds, 0.9) if seconds else 0.0, "s"),
        "compile_s.p50": (statistics.median(compiles) if compiles
                          else 0.0, "s"),
        "ok_rate": (len(ok) / len(executions), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


PASS_NAMES = ("inline", "mem2reg", "constfold", "simplifycfg", "gvn",
              "licm", "loop-idiom", "loop-unroll", "dce")


def per_layer(tracing, recorder, executions, scale):
    """Per-layer metrics of the traced executions: times are mean self
    seconds per point at reference speed; counts are per execution or
    per compile."""
    points = max(1, sum(1 for _p, _r, traced in executions if traced))
    pairs = {}
    for point, result, traced in executions:
        if result["error"] is None:
            pairs.setdefault(point.key, {})[traced] = result["seconds"]
    overheads = [pair[True] / pair[False] for pair in pairs.values()
                 if len(pair) == 2]
    selfs = tracing.self_times(recorder.spans)
    totals = tracing.total_times(recorder.spans)
    counts = recorder.counts
    samples = recorder.samples

    def ratio(num, den):
        return num / den if den else 0.0

    def own(*names):
        return sum(selfs.get(name, 0.0) for name in names) * scale / points

    def sampled(group):
        return samples.get(group, 0) * tracing.SAMPLE_INTERVAL * scale / \
            points

    runs = counts.get("runs", 0)
    metrics = {
        "lang.parse_s": (own("lang.parse"), "s"),
        "lang.sema_s": (own("lang.sema"), "s"),
        "passes.polly_s": (own("passes.polly"), "s"),
        "codegen.irgen_s": (own("codegen.irgen"), "s"),
        "passes.o3_s": (own("passes.o3"), "s"),
    }
    for name in PASS_NAMES:
        metrics[f"passes.{name}_s"] = (
            counts.get(f"pass.{name}", 0.0) * scale / points, "s")
    metrics.update({
        "ir.verify_s": (own("ir.verify"), "s"),
        "backends.lower_s": (own("backends.lower"), "s"),
        "ir.instructions": (ratio(counts.get("ir.instructions", 0),
                                  counts.get("o3.runs", 0)), "count"),
        "core.cache.get_s": (own("core.cache.get"), "s"),
        "core.cache.put_s": (own("core.cache.put"), "s"),
        "core.cache.errors": (counts.get("cache.errors", 0) / points,
                              "count"),
        "core.cache.hit_ratio": (ratio(counts.get("cache.hits", 0),
                                       counts.get("cache.gets", 0)),
                                 "ratio"),
        "codegen.pyjit.materialize_s": (
            totals.get("codegen.pyjit.materialize", 0.0) * scale / points,
            "s"),
        "codegen.pyjit.emit_s": (
            totals.get("codegen.pyjit.emit", 0.0) * scale / points, "s"),
        "codegen.pyjit.jit_ratio": (ratio(counts.get("jit.jitted", 0),
                                          counts.get("jit.attempted", 0)),
                                    "ratio"),
        "runtime.execute_s": (own("runtime.execute",
                                  "runtime.unum_machine"), "s"),
        "runtime.instructions": (
            ratio(counts.get("runtime.instructions", 0), runs), "count"),
        "runtime.memory_model_s": (sampled("memory_model"), "s"),
        "runtime.cost_model.line_accesses": (
            ratio(counts.get("line_accesses", 0), runs), "count"),
        "bigfloat.arith_s": (sampled("arith"), "s"),
        "bigfloat.mpfr_calls": (ratio(counts.get("mpfr_calls", 0), runs),
                                "count"),
        "bigfloat.pool_hit_ratio": (
            ratio(counts.get("pool.hits", 0),
                  counts.get("pool.hits", 0) + counts.get("pool.misses", 0)),
            "ratio"),
        "runtime.dispatch_s": (sampled("dispatch"), "s"),
        "runtime.unum_machine_s": (own("runtime.unum_machine"), "s"),
        "evaluation.extract_s": (own("evaluation.extract"), "s"),
        "trace.overhead": (statistics.median(overheads) - 1.0
                           if overheads else 0.0, "ratio"),
    })
    return metrics


COMPILE_SIDE = ("core.compile", "lang.parse", "lang.sema", "passes.polly",
                "codegen.irgen", "passes.o3", "ir.verify", "backends.lower",
                "core.cache.get", "core.cache.put",
                "codegen.pyjit.materialize", "codegen.pyjit.emit")
EXECUTE_SIDE = ("runtime.execute", "runtime.unum_machine")


def layer_shares(tracing, recorder) -> dict:
    """Share of traced point time spent in compile-side, execute-side
    and extract self time (the rest is the harness itself)."""
    selfs = tracing.self_times(recorder.spans)
    point_time = tracing.total_times(recorder.spans).get("point", 0.0)
    if not point_time:
        return {}
    shares = {
        "compile": sum(selfs.get(n, 0.0) for n in COMPILE_SIDE),
        "execute": sum(selfs.get(n, 0.0) for n in EXECUTE_SIDE),
        "extract": selfs.get("evaluation.extract", 0.0),
    }
    return {side: value / point_time for side, value in shares.items()}


def write_spans(recorder, workload: str, seed: int) -> Path:
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "point"],
                   "spans": recorder.spans,
                   "counts": dict(recorder.counts),
                   "samples": dict(recorder.samples)}, handle)
    return path


def report(executions, rounds: int, metrics: dict) -> None:
    """Human-readable lines before the JSON result."""
    failures = Counter()
    examples = {}
    for point, result, _traced in executions:
        error = result["error"]
        if error is not None:
            failures[error] += 1
            known = getattr(point, "known_defect", None)
            examples.setdefault(error, set()).add(
                point.key + (f" ({result['detail']})"
                             if "detail" in result else "")
                + (" [known defect]" if known and known[0] == error
                   else ""))
    ok = sum(1 for _p, r, _t in executions if r["error"] is None)
    print(f"rounds: {rounds}; points attempted: {len(executions)}; "
          f"correct: {ok}; failed: {len(executions) - ok} "
          f"(fail_rate {(len(executions) - ok) / len(executions):.4f})")
    for error, count in sorted(failures.items()):
        print(f"  failed {count} x {error}: "
              f"{', '.join(sorted(examples[error]))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print each workload's first-round points "
                             "for --seed without running them")
    args = parser.parse_args(argv)
    if args.workload is None and not args.list:
        parser.error("--workload is required unless --list is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"evalbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Run records would be written outside the checkout.
    os.environ.pop("VPFLOAT_LEDGER", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import points
    import tracing
    from repro.core import CompilerDriver

    if args.list:
        for name in ((args.workload,) if args.workload
                     else WORKLOAD_CLASSES):
            ctx = Context(points, tracing, WORK_ROOT, None)
            round_points = points.shuffled(
                WORKLOAD_CLASSES[name].points(Workload(ctx), args.seed),
                args.seed, 0)
            print(f"{name}: {len(round_points)} points per round")
            for point in round_points:
                print(f"  {point.key}")
        return 0

    import_seconds = clock()
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ctx = Context(points, tracing, work, CompileTimer(CompilerDriver))
        workload = WORKLOAD_CLASSES[args.workload](ctx)
        # Set-up happens before the measured phase and its probes, so
        # each repeat is rescaled by probes taken around it.
        setup_times = []
        for repeat in range(workload.setup_repeats):
            before = probe_mean()
            started = clock()
            workload.setup(repeat)
            elapsed = clock() - started
            ctx.setup_scales.append(
                2 * PROBE_REFERENCE / (before + probe_mean()))
            setup_times.append(elapsed * ctx.setup_scales[-1])
        setup_s = import_seconds * ctx.setup_scales[0] + \
            statistics.median(setup_times)
        executions, rounds, recorder = measure(
            ctx, workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    probes = [r["probe"] for _p, r, _t in executions if r.get("probe")]
    scale = PROBE_REFERENCE / statistics.mean(probes)
    if args.trace:
        metrics = per_layer(tracing, recorder, executions, scale)
        report(executions, rounds, metrics)
        for side, share in layer_shares(tracing, recorder).items():
            print(f"share of traced point time, {side} side: {share:.3f}")
        path = write_spans(recorder, args.workload, args.seed)
        print(f"spans written to {path}")
    else:
        metrics = end_to_end(workload, executions, setup_s, scale)
        report(executions, rounds, metrics)
        ok = [r["seconds"] for _p, r, _t in executions if r["error"] is None]
        beyond = sum(1 for s in ok
                     if s * scale > metrics["point_s.p90"][0])
        print(f"point_s samples: {len(ok)}, {beyond} beyond p90; "
              f"speed probe mean {statistics.mean(probes) * 1e3:.3f} ms "
              f"over {len(probes)} probes, time scale {scale:.4f}")
    failed = sum(1 for _p, r, _t in executions if r["error"] is not None)
    correct = not any(r["error"] == "mismatch" and not known_mismatch(p)
                      for p, r, _t in executions)
    print(json.dumps({
        "correct": correct,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
