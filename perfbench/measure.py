"""Wall-clock measurement of one pass over a workload, and the metrics derived from it."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, Iterator, Optional

from perfbench import oracle
from perfbench.tracing import LAYER_NAMES, Tracer

#: The operation whose latency is ``op_*`` and whose count is ``ops_per_s``, per workload.
UNIT_OPERATION = {"bob_read": "query", "mixed_durable": "drain"}
#: Program calls a workload's timed phase makes; their summed wall time is its busy time.
TIMED_OPERATIONS = {
    "bob_read": ("query",),
    "mixed_durable": ("upload", "drain", "probe", "checkpoint", "restore"),
}
#: Root spans a traced pass opens, one per timed operation kind.
ROOT_NAMES = tuple(
    f"op.{kind}" for kind in ("upload", "query", "drain", "probe", "checkpoint", "restore")
)


class Recorder:
    """Wall times, answer checks and program counters of one pass over a workload.

    A workload repeats identical episodes, so the *n*-th call of a kind in one episode does
    the same work as the *n*-th call in every other.  Besides every wall time, the recorder
    keeps the best (lowest) wall time per position; those best-of-N profiles are what the
    gated end-to-end metrics are computed from (see ``perfbench/README.md``).
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        #: Operation kind -> wall seconds of each call that returned.
        self.latency: dict[str, list[float]] = defaultdict(list)
        #: Operation kind -> lowest wall seconds per position within an episode.
        self.best: dict[str, list[float]] = defaultdict(list)
        self._position: dict[str, int] = defaultdict(int)
        self.setup_seconds: list[float] = []
        self.rows_uploaded = 0
        self.source_bytes = 0
        self.stored_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Summed job counters of every query result checked.
        self.counters: dict[str, float] = defaultdict(float)
        self.queries = 0
        self.records_returned = 0
        #: Per-episode (for bob_read, per-query-cycle) observations, keyed by name.
        self.per_episode: dict[str, list[float]] = defaultdict(list)
        #: Hash of each canonical answer, in check order (compared between passes; kept
        #: instead of the answers so that the benchmark's memory stays out of peak RSS).
        self.answer_hashes: list[int] = []
        #: ``PRAGMA journal_mode`` of the workload's SQLite journal, if it keeps one.
        self.journal_mode: Optional[str] = None

    def episode(self) -> None:
        """Start an episode: call positions of every kind count from zero again."""
        self._position.clear()

    @contextmanager
    def setup(self) -> Iterator[None]:
        """Time one set-up (deploy, data generation, preload upload)."""
        start = perf_counter()
        yield
        self.setup_seconds.append(perf_counter() - start)

    def call(self, kind: str, fn: Callable, *args, ops: int = 1, traced: bool = True, **kwargs):
        """Run one program operation, timed; returns its result, or ``None`` if it raised.

        ``ops`` is how many answers the call stands for (a drain answers several queries).
        A traced pass opens an ``op.<kind>`` root span unless ``traced`` is false.
        """
        self.attempted += ops
        position = self._position[kind]
        self._position[kind] += 1
        scope = self.tracer.root(f"op.{kind}") if self.tracer and traced else nullcontext()
        start = perf_counter()
        try:
            with scope:
                result = fn(*args, **kwargs)
        except Exception as error:  # counted against error_rate; the loop goes on
            self.fail(ops, f"{kind} raised {error!r}")
            return None
        seconds = perf_counter() - start
        self.latency[kind].append(seconds)
        best = self.best[kind]
        best.extend([float("inf")] * (position + 1 - len(best)))
        best[position] = min(best[position], seconds)
        return result

    def fail(self, count: int, message: str) -> None:
        """Count ``count`` failed operations."""
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def skip(self, message: str) -> None:
        """Count one operation that could not run because an earlier one failed."""
        self.attempted += 1
        self.fail(1, message)

    def check(self, records, expected: list[tuple], what: str) -> list[tuple]:
        """Compare one answer with the expected one; returns the answer in canonical order."""
        answer = oracle.canonical(records)
        self.answer_hashes.append(hash(tuple(answer)))
        if answer != expected:
            self.fail(1, f"wrong answer: {what} ({len(answer)} records, {len(expected)} expected)")
        return answer

    def upload(self, kind: str, session, path: str, rows, schema, rows_per_block: int) -> bool:
        """One timed ``Session.upload`` whose report is checked; returns whether it succeeded.

        Set-up uploads (``kind != "upload"``) are timed but open no root span.
        """
        dataset = self.call(
            kind,
            session.upload,
            path,
            rows,
            schema,
            rows_per_block=rows_per_block,
            traced=kind == "upload",
        )
        if dataset is None:
            return False
        self.rows_uploaded += len(rows)
        report = session.upload_reports[path]["HAIL"]
        self.source_bytes += report.source_text_bytes
        self.stored_bytes += report.stored_bytes
        if report.num_records != len(rows):
            self.fail(1, f"upload report of {path} counts {report.num_records} of {len(rows)} rows")
        return True

    def observe(self, result) -> None:
        """Fold one query result's job counters into the pass totals."""
        for name, value in result.job.counters:
            self.counters[name] += value
        self.queries += 1
        self.records_returned += len(result.records)


# --------------------------------------------------------------------------- metrics
def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``; 0 if there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(values: list[float]) -> list[float]:
    """Best-of-N times of the positions at which at least one call returned."""
    return [value for value in values if value != float("inf")]


def end_to_end(workload: str, rec: Recorder) -> dict[str, tuple[float, str]]:
    """The gated end-to-end metrics: ``{name: (value, unit)}``, the same set on every workload.

    Timings come from the best-of-N profiles: ``setup_s`` is the fastest set-up, ``op_*`` are
    percentiles over the positions of the unit operation, and ``ops_per_s`` is unit operations per episode over the summed best
    times of every timed call of an episode.  A position at which every call raised has no
    time and is left out; such a run reports ``failed > 0``, and timings of 0 if no call of
    the unit operation returned.
    """
    unit = _finite(rec.best[UNIT_OPERATION[workload]])
    busy = sum(sum(_finite(rec.best[kind])) for kind in TIMED_OPERATIONS[workload])
    return {
        "setup_s": (min(rec.setup_seconds, default=0.0), "s"),
        "op_p50_ms": (percentile(unit, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(unit, 90) * 1e3, "ms"),
        "ops_per_s": (_ratio(len(unit), busy), "1/s"),
        "stored_bytes_per_input_byte": (_ratio(rec.stored_bytes, rec.source_bytes), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_report(workload: str, rec: Recorder) -> list[tuple[str, float, str, str]]:
    """The workload's metrics over all samples, by name: ``(name, value, unit, note)``.

    ``setup_s`` is the gated best-of-N value; its note gives the median beside it.
    """
    latency = rec.latency

    def timing(name: str, kind: str, q: int) -> tuple[str, float, str, str]:
        values = latency[kind]
        if not values:
            return (name, 0.0, "ms", "n=0")
        cut = percentile(values, q)
        beyond = sum(1 for value in values if value > cut)
        return (name, cut * 1e3, "ms", f"n={len(values)}, {beyond} beyond")

    def median_s(name: str, values: list[float]) -> tuple[str, float, str, str]:
        return (name, _median(values), "s", f"median of {len(values)}")

    uploads = latency["upload"] + latency["setup_upload"]
    setups = rec.setup_seconds
    rows = [("setup_s", min(setups, default=0.0), "s",
             f"best of {len(setups)}, median {_median(setups):.6g}")]
    if workload == "bob_read":
        rows += [
            ("queries_per_s", _ratio(len(latency["query"]), sum(latency["query"])),
             "queries/s", ""),
            timing("query_p50_ms", "query", 50),
            timing("query_p99_ms", "query", 99),
        ]
    if workload == "mixed_durable":
        rows += [
            ("upload_rows_per_s", _ratio(rec.rows_uploaded, sum(uploads)), "rows/s",
             f"{len(uploads)} uploads incl. set-up"),
            timing("upload_p50_ms", "upload", 50),
            ("queries_per_s", _ratio(rec.queries, sum(latency["drain"])), "queries/s",
             "answered in drains"),
            timing("batch_p50_ms", "drain", 50),
            timing("batch_p90_ms", "drain", 90),
            median_s("checkpoint_s", latency["checkpoint"]),
            median_s("restore_s", latency["restore"]),
            ("journal_bytes_per_input_byte", _median(rec.per_episode["journal_per_source"]),
             "ratio", "median over episodes"),
        ]
    rows += [
        ("peak_rss_mb", peak_rss_mb(), "MB", ""),
        ("error_rate", _ratio(rec.failed, rec.attempted), "fraction",
         f"{rec.failed} of {rec.attempted} operations"),
    ]
    return rows


def per_layer(
    workload: str, traced: Recorder, untraced: Recorder
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, normalised per unit operation of the workload."""
    ops = len(traced.latency[UNIT_OPERATION[workload]])
    totals = traced.tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES + ROOT_NAMES:
        calls, seconds = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (_ratio(calls, ops), "calls/op")
        metrics[f"{name}.self_ms"] = (_ratio(seconds * 1e3, ops), "ms/op")
    c = traced.counters
    builds = c["ADAPTIVE_INDEXES_COMMITTED"]
    from repro.hail.scheduler import index_local_task_fraction

    metrics.update(
        {
            "engine.rows_examined_per_result": (
                _ratio(c["MAP_INPUT_RECORDS"], traced.records_returned), "rows/record"),
            "engine.bytes_read_per_result": (
                _ratio(c["BYTES_READ"], traced.records_returned), "bytes/record"),
            "engine.index_scan_share": (
                _ratio(c["INDEX_SCANS"], c["INDEX_SCANS"] + c["FULL_SCANS"]), "fraction"),
            "engine.adaptive_builds": (_ratio(builds, ops), "builds/op"),
            "engine.adaptive_uses_per_build": (
                _ratio(c["ADAPTIVE_INDEX_USES"], builds), "uses/build"),
            "engine.evicted_per_build": (
                _ratio(c["ADAPTIVE_INDEXES_EVICTED"], builds), "evictions/build"),
            "engine.zone_skipped_blocks": (_ratio(c["ZONE_MAP_SKIPPED_BLOCKS"], ops), "blocks/op"),
            "mapreduce.map_tasks": (_ratio(c["LAUNCHED_MAP_TASKS"], traced.queries), "tasks/query"),
            "mapreduce.index_local_share": (index_local_task_fraction(dict(c)), "fraction"),
            "mapreduce.sim_queue_wait_s": (
                _ratio(c["SCHED_QUEUE_WAIT_SECONDS"], traced.queries), "sim_s/query"),
            "hdfs.stored_bytes": (_median(traced.per_episode["stored_bytes"]), "bytes"),
            "persist.journal_bytes": (_median(traced.per_episode["journal_bytes"]), "bytes"),
            "cluster.sim_upload_s": (_median(traced.per_episode["sim_upload_s"]), "sim_s/upload"),
            "cluster.sim_query_s": (_median(traced.per_episode["sim_query_s"]), "sim_s/query"),
        }
    )
    plain = end_to_end(workload, untraced)
    with_trace = end_to_end(workload, traced)
    for name in ("op_p50_ms", "op_p90_ms", "ops_per_s"):
        metrics[f"trace.overhead.{name}"] = (with_trace[name][0] - plain[name][0], plain[name][1])
    return metrics
