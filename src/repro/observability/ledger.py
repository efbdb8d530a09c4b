"""Persistent run ledger: append-only, schema-versioned JSONL history.

Every compile and run event of the stack evaporated with the process
until now -- Perfetto traces and metrics dumps are per-invocation
artifacts, not history.  The ledger is the durable substrate: one JSONL
file that every :class:`~repro.core.CompilerDriver` compile, every
``program.run``, every harness sweep point and every benchmark appends
one self-describing record to, so performance has a trajectory that
regression gating (``vpfloat-stats compare``) and the autotuner
roadmap items can read.

Design constraints, in order:

* **Append-only and torn-line free under multiprocess writers.**  Each
  record is one ``\\n``-terminated JSON line written with a single
  ``os.write`` to an ``O_APPEND`` descriptor.  POSIX guarantees the
  kernel serializes O_APPEND writes to regular files, so ``run_grid``
  workers sharing one ledger interleave whole lines, never bytes.
* **Schema-versioned.**  Every record carries ``schema`` (see
  :data:`LEDGER_SCHEMA_VERSION`); :func:`validate_record` rejects
  malformed records and readers skip (and count) lines they cannot
  parse instead of dying on a half-written tail.
* **Zero overhead when disabled.**  Producers consult
  :func:`current_ledger` exactly once per compile/run boundary (never
  inside instruction loops); with no ledger installed that is a single
  ``is not None`` check, preserving the <2% disabled-observability
  floor asserted by ``bench_observability_overhead.py``.

The reproducibility envelope (:func:`reproducibility_envelope`) is
shared verbatim with the benchmark JSON artifacts so ledgers and bench
dumps identify their origin (git revision, interpreter, CPU count,
host) the same way.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

#: Bump when the record envelope changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Environment override installing a process-default ledger path; the
#: parallel engine's workers honour it so one sweep shares one file.
LEDGER_ENV = "VPFLOAT_LEDGER"

#: Record kinds the schema admits.
EVENTS = ("compile", "run", "eval_point", "bench")

_NUMERIC = (int, float)


class LedgerError(ValueError):
    """A ledger record or file failed validation."""


# ----------------------------------------------------------------- #
# Reproducibility envelope (shared with benchmark JSON artifacts)
# ----------------------------------------------------------------- #

_GIT_REV = None


def _git_revision() -> Optional[str]:
    """Best-effort ``git rev-parse HEAD`` of the source tree, cached."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            root = os.path.dirname(os.path.abspath(__file__))
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or "unknown"
        except Exception:
            _GIT_REV = "unknown"
    return _GIT_REV


def bench_floor_scale() -> float:
    """``$VPFLOAT_BENCH_FLOOR_SCALE`` as a float (default 1.0).

    The perf benches multiply their speedup floors by this, so loaded
    or throttled CI runners can relax the gates (e.g. ``0.5``) without
    editing the floors out of the benches; an unset or malformed value
    leaves the floors untouched."""
    raw = os.environ.get("VPFLOAT_BENCH_FLOOR_SCALE")
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


def reproducibility_envelope() -> dict:
    """Who/what/where metadata stamped into ledgers and bench JSON.

    One common shape for both artifact families so a bench dump and the
    ledger records of the same session can be joined on it.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:
        numpy_version = None
    try:
        import gmpy2
        gmpy_version = gmpy2.version()
    except Exception:
        gmpy_version = None
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "git_rev": _git_revision(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": numpy_version,
        "gmpy": gmpy_version,
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.time(),
    }


# ----------------------------------------------------------------- #
# Writer
# ----------------------------------------------------------------- #

class RunLedger:
    """Append-only JSONL writer over one ledger file.

    The descriptor is opened ``O_APPEND`` on first use and each record
    is one ``os.write`` of a full line, so concurrent writers (the
    ``run_grid`` worker pool, parallel CI shards) can share a file with
    no locking and no torn lines.  The instance is picklable across
    ``fork``/``spawn`` (the descriptor is reopened per process).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd: Optional[int] = None
        self._pid: Optional[int] = None
        #: Stamped into every record; computed once per process.
        self._host: Optional[dict] = None
        self.records_written = 0

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_fd"] = None
        state["_pid"] = None
        state["_host"] = None
        return state

    def _descriptor(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            # A forked child must not share the parent's counter state;
            # O_APPEND makes the shared file offset a non-issue.
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                               0o644)
            self._pid = pid
        return self._fd

    def _host_meta(self) -> dict:
        # Keyed on the pid so a fork-inherited instance re-stamps with
        # the child's identity instead of the parent's cached one.
        if self._host is None or self._host.get("pid") != os.getpid():
            envelope = reproducibility_envelope()
            envelope.pop("schema", None)
            envelope.pop("timestamp", None)
            envelope["pid"] = os.getpid()
            self._host = envelope
        return self._host

    def record(self, event: str, **fields) -> dict:
        """Append one record; returns the dict that was written."""
        if event not in EVENTS:
            raise LedgerError(f"unknown ledger event {event!r}; "
                              f"choose from {EVENTS}")
        entry = {
            "schema": LEDGER_SCHEMA_VERSION,
            "event": event,
            "ts": time.time(),
            "host": self._host_meta(),
        }
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        os.write(self._descriptor(), line.encode("utf-8"))
        self.records_written += 1
        return entry

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None
            self._pid = None


# ----------------------------------------------------------------- #
# Process-global installation (mirrors the tracer/metrics hooks)
# ----------------------------------------------------------------- #

_LEDGER: Optional[RunLedger] = None
_ENV_CHECKED = False


def current_ledger() -> Optional[RunLedger]:
    """The installed ledger, or None when run recording is disabled.

    ``$VPFLOAT_LEDGER`` (a file path) installs a process default the
    first time anyone asks -- this is how ``run_grid`` worker processes
    under the ``spawn`` start method find the sweep's shared ledger.
    """
    global _LEDGER, _ENV_CHECKED
    if _LEDGER is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(LEDGER_ENV)
        if path:
            _LEDGER = RunLedger(path)
    return _LEDGER


def install_ledger(ledger: Optional[RunLedger]) -> Optional[RunLedger]:
    """Install ``ledger`` as the process default; returns the previous
    one so callers can restore it."""
    global _LEDGER, _ENV_CHECKED
    previous = _LEDGER
    _LEDGER = ledger
    _ENV_CHECKED = True
    return previous


@contextmanager
def ledger_session(path):
    """Scoped ledger: installs a fresh writer over ``path``, restores
    the previous configuration (and closes the writer) on exit."""
    ledger = RunLedger(path)
    previous = install_ledger(ledger)
    try:
        yield ledger
    finally:
        install_ledger(previous)
        ledger.close()


def report_fields(report) -> dict:
    """The CostReport slice every run-shaped record embeds."""
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        "mpfr_calls": report.mpfr_calls,
        "heap_allocations": report.heap_allocations,
        "llc_misses": report.llc_misses,
        "dram_bytes": report.dram_bytes,
        "parallel_cycles": report.parallel_cycles,
        "by_category": dict(report.by_category),
    }


# ----------------------------------------------------------------- #
# Reader / validation
# ----------------------------------------------------------------- #

def validate_record(record) -> None:
    """Raise :class:`LedgerError` unless ``record`` is a well-formed
    ledger record under the current schema."""
    if not isinstance(record, dict):
        raise LedgerError("ledger record must be a JSON object")
    schema = record.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise LedgerError("ledger record missing integer 'schema'")
    if schema > LEDGER_SCHEMA_VERSION:
        raise LedgerError(f"ledger record schema {schema} is newer than "
                          f"this reader ({LEDGER_SCHEMA_VERSION})")
    if record.get("event") not in EVENTS:
        raise LedgerError(f"ledger record has unknown event "
                          f"{record.get('event')!r}")
    if not isinstance(record.get("ts"), _NUMERIC):
        raise LedgerError("ledger record missing numeric 'ts'")
    if not isinstance(record.get("host"), dict):
        raise LedgerError("ledger record missing 'host' object")
    for field in ("cycles", "instructions", "wall_seconds"):
        value = record.get(field)
        if value is not None and (not isinstance(value, _NUMERIC)
                                  or isinstance(value, bool)):
            raise LedgerError(f"ledger field {field!r} is not numeric")


def read_ledger(path, strict: bool = False
                ) -> Tuple[List[dict], List[str]]:
    """Parse a ledger file; returns ``(records, problems)``.

    Unparsable or invalid lines are skipped and described in
    ``problems`` (``strict=True`` raises on the first one instead) --
    a crashed writer's half line must never invalidate the history
    before it.
    """
    records: List[dict] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                validate_record(record)
            except (json.JSONDecodeError, LedgerError) as error:
                if strict:
                    raise LedgerError(
                        f"{path}:{lineno}: {error}") from None
                problems.append(f"line {lineno}: {error}")
                continue
            records.append(record)
    return records, problems


# ----------------------------------------------------------------- #
# Regression comparison (the gate behind ``vpfloat-stats compare``)
# ----------------------------------------------------------------- #

#: Metrics that are deterministic model outputs: any change is real,
#: no noise allowance applies.
DETERMINISTIC_METRICS = ("cycles", "instructions", "mpfr_calls",
                         "llc_misses", "dram_bytes")

#: Host wall-clock metrics: gated with a median + MAD noise allowance,
#: and only when both ledgers were written on the same host.
WALL_METRICS = ("wall_seconds",)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: List[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


def comparison_key(record: dict) -> Optional[tuple]:
    """The benchmark identity of a record: what must match between two
    ledgers for their samples to be comparable."""
    if record.get("event") not in ("run", "eval_point", "bench"):
        return None
    return (
        record.get("event"),
        record.get("kernel") or record.get("function"),
        record.get("ftype"),
        record.get("n"),
        record.get("backend"),
        record.get("engine"),
        record.get("opt_level"),
    )


class Regression:
    """One metric of one benchmark key got worse from A to B."""

    def __init__(self, key: tuple, metric: str, baseline: float,
                 candidate: float, threshold: float, kind: str):
        self.key = key
        self.metric = metric
        self.baseline = baseline
        self.candidate = candidate
        self.threshold = threshold
        self.kind = kind  # "deterministic" | "wall"

    @property
    def ratio(self) -> float:
        if not self.baseline:
            return float("inf")
        return self.candidate / self.baseline

    def render(self) -> str:
        label = "/".join(str(p) for p in self.key if p is not None)
        return (f"{label}: {self.metric} {self.baseline:g} -> "
                f"{self.candidate:g} ({self.ratio:.3f}x, "
                f"threshold {self.threshold:g}, {self.kind})")


def _samples_by_key(records: Iterable[dict]
                    ) -> Dict[tuple, Dict[str, List[float]]]:
    grouped: Dict[tuple, Dict[str, List[float]]] = {}
    for record in records:
        key = comparison_key(record)
        if key is None:
            continue
        metrics = grouped.setdefault(key, {})
        for metric in DETERMINISTIC_METRICS + WALL_METRICS:
            value = record.get(metric)
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                metrics.setdefault(metric, []).append(float(value))
    return grouped


#: The host-envelope fields that must all match for two ledgers to
#: count as written on the same host.  The hostname alone is not
#: enough: sandboxes and CI runners reuse one name across machines.
HOST_FIELDS = ("hostname", "platform", "cpu_count", "python")


def _same_host(a_records: List[dict], b_records: List[dict]) -> bool:
    def hosts(records):
        return {tuple(r["host"].get(f) for f in HOST_FIELDS)
                for r in records if isinstance(r.get("host"), dict)}

    ha, hb = hosts(a_records), hosts(b_records)
    return bool(ha) and ha == hb


def compare_ledgers(baseline_records: List[dict],
                    candidate_records: List[dict],
                    wall_mad_factor: float = 5.0,
                    wall_rel_floor: float = 0.10,
                    deterministic_rel_tol: float = 0.0,
                    gate_wall: Optional[bool] = None):
    """Noise-aware A/B comparison of two ledgers.

    Returns ``(regressions, improvements, compared, skipped)`` where
    ``compared`` counts (key, metric) pairs examined and ``skipped``
    lists keys present in only one ledger.

    Deterministic model metrics (cycles, instructions, traffic) gate on
    the median with ``deterministic_rel_tol`` slack (default: exact --
    the model is bit-reproducible, so any growth is a real regression).
    Wall-clock metrics gate on median-of-k with a MAD-scaled allowance
    (``median_B > median_A + max(wall_mad_factor * MAD_A,
    wall_rel_floor * median_A)``) and only when both ledgers were
    written on the same host, i.e. with equal :data:`HOST_FIELDS`
    (``gate_wall`` overrides the auto-detection) -- cross-machine wall
    comparisons are reported as informational improvements/regressions
    never, gated never.
    """
    base = _samples_by_key(baseline_records)
    cand = _samples_by_key(candidate_records)
    if gate_wall is None:
        gate_wall = _same_host(baseline_records, candidate_records)
    regressions: List[Regression] = []
    improvements: List[Regression] = []
    compared = 0
    # Key fields may be None (unum rows have no engine), which does not
    # order against str/int: sort by text.
    skipped = sorted(set(base) ^ set(cand), key=repr)
    for key in sorted(set(base) & set(cand), key=repr):
        for metric, b_samples in sorted(base[key].items()):
            c_samples = cand[key].get(metric)
            if not c_samples:
                continue
            b_med = _median(b_samples)
            c_med = _median(c_samples)
            if metric in WALL_METRICS:
                if not gate_wall:
                    continue
                allowance = max(wall_mad_factor * _mad(b_samples, b_med),
                                wall_rel_floor * b_med)
                compared += 1
                threshold = b_med + allowance
                if c_med > threshold:
                    regressions.append(Regression(
                        key, metric, b_med, c_med, threshold, "wall"))
                elif c_med < b_med - allowance:
                    improvements.append(Regression(
                        key, metric, b_med, c_med, threshold, "wall"))
            else:
                compared += 1
                threshold = b_med * (1.0 + deterministic_rel_tol)
                if c_med > threshold:
                    regressions.append(Regression(
                        key, metric, b_med, c_med, threshold,
                        "deterministic"))
                elif c_med < b_med:
                    improvements.append(Regression(
                        key, metric, b_med, c_med, threshold,
                        "deterministic"))
    return regressions, improvements, compared, skipped
