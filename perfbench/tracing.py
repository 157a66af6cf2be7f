"""Span tracing at the layer boundaries of the HAIL stack, installed from outside the program.

A :class:`Tracer` replaces each public function named in :data:`LAYER_SPANS` with a wrapper
that records the span's name, start, end and parent in memory, calls the original and returns
its result unchanged.  Methods are patched on the class that defines them; free functions are
patched in the namespace of the module that calls them (``chunk_checksums`` is bound by name
in ``repro.hail.upload``, ``run_reduce_phase`` in ``repro.mapreduce.runner``).
:meth:`Tracer.uninstall` puts every original back.

Only spans opened inside a root span (one benchmark operation, see :meth:`Tracer.root`) are
recorded, so set-up and answer checking never show up in the per-layer numbers.  A span's
*self time* is its duration minus the durations of its direct children.  Every span is folded
into per-name totals as it closes; the first spans are also kept whole (name, start, end,
parent) and written out as a Chrome trace when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

#: ``(span name, module, class or None for a module-level function, attribute names)``.
LAYER_SPANS: tuple[tuple[str, str, Optional[str], tuple[str, ...]], ...] = (
    ("api.compile", "repro.api.logical", "LogicalQuery", ("compile",)),
    ("engine.plan_query", "repro.engine.planner", "PhysicalPlanner", ("plan_query",)),
    ("engine.execute", "repro.engine.executor", "VectorizedExecutor", ("execute", "execute_text")),
    # The executor calls ``kernels.filter_range`` through the module, and ``filter_ranges``
    # calls ``filter_range`` by its global name, so both are patched on the kernels module.
    ("engine.filter_kernels", "repro.engine.kernels", None, ("filter_range", "filter_ranges")),
    # The runner imports ``commit_adaptive_builds`` from this module at call time.
    ("engine.adaptive_commit", "repro.engine.adaptive", None, ("commit_adaptive_builds",)),
    ("engine.lifecycle", "repro.engine.lifecycle", "AdaptiveLifecycleManager", ("after_job",)),
    ("engine.lifecycle", "repro.engine.lifecycle", None, ("evict_under_pressure",)),
    (
        "mapreduce.map_phase",
        "repro.mapreduce.job_tracker",
        "JobTracker",
        ("run_map_phase", "run_concurrent_map_phases"),
    ),
    ("mapreduce.map_task", "repro.mapreduce.task", "MapTask", ("run",)),
    ("mapreduce.reduce", "repro.mapreduce.runner", None, ("run_reduce_phase",)),
    ("hail.get_splits", "repro.hail.input_format", "HailInputFormat", ("get_splits",)),
    ("hail.upload_block", "repro.hail.upload", "HailUploadPipeline", ("upload_block",)),
    ("hail.block_build", "repro.hail.hail_block", "HailBlock", ("build",)),
    ("hdfs.total_stored_bytes", "repro.hdfs.filesystem", "Hdfs", ("total_stored_bytes",)),
    ("hdfs.chunk_checksums", "repro.hail.upload", None, ("chunk_checksums",)),
    ("hdfs.store_replica", "repro.hdfs.datanode", "DataNode", ("store_replica",)),
    (
        "hdfs.register_replica",
        "repro.hdfs.namenode",
        "NameNode",
        ("register_replica", "register_replica_info"),
    ),
    ("layouts.text_size", "repro.layouts.schema", "Schema", ("text_size",)),
    ("layouts.pax_from_records", "repro.layouts.pax", "PaxBlock", ("from_records",)),
    ("layouts.pax_to_bytes", "repro.layouts.pax", "PaxBlock", ("to_bytes",)),
    (
        "layouts.pax_size_bytes",
        "repro.layouts.pax",
        "PaxBlock",
        ("size_bytes", "column_size_bytes"),
    ),
    ("layouts.pax_from_bytes", "repro.layouts.pax", "PaxBlock", ("from_bytes",)),
    ("persist.sync_path", "repro.persist.sqlite_backend", "SqliteBackend", ("sync_path",)),
    ("persist.sync_block", "repro.persist.sqlite_backend", "SqliteBackend", ("sync_block",)),
    ("persist.sync_control", "repro.persist.sqlite_backend", "SqliteBackend", ("sync_control",)),
    ("persist.checkpoint", "repro.persist.backend", "PersistenceBackend", ("checkpoint",)),
    ("persist.load_state", "repro.persist.sqlite_backend", "SqliteBackend", ("load_state",)),
    # ``Session.restore`` imports ``restore_system`` from the package at call time.
    ("persist.restore_system", "repro.persist", None, ("restore_system",)),
)

#: Every layer span name, in :data:`LAYER_SPANS` order, without repeats.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in LAYER_SPANS))


class Tracer:
    """Folds nested spans into per-name totals; keeps the first ``keep`` spans themselves."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Per name id: calls, inclusive seconds and self seconds.
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.own: list[float] = []
        #: The first ``keep`` spans: name id, index of the parent span (-1 for a root), times.
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open spans: ``[name id, start, seconds covered by children, kept index]``.
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ recording
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.own.append(0.0)
        return self._name_ids[name]

    def _open(self, name_id: int) -> None:
        kept = -1
        if len(self.start) < self.keep:
            kept = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1][3] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        self._stack.append([name_id, 0.0, 0.0, kept])
        start = perf_counter()
        self._stack[-1][1] = start
        if kept >= 0:
            self.start[kept] = start

    def _close(self) -> None:
        end = perf_counter()
        name_id, start, children, kept = self._stack.pop()
        duration = end - start
        self.calls[name_id] += 1
        self.inclusive[name_id] += duration
        self.own[name_id] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if kept >= 0:
            self.end[kept] = end

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span around one benchmark operation; layer spans nest under it."""
        self._open(self._intern(name))
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording a ``name`` span per call made while a root span is open."""
        name_id = self._intern(name)
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            self._open(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                self._close()

        return traced

    # ------------------------------------------------------------------ patching
    def install(self) -> None:
        """Patch every :data:`LAYER_SPANS` entry; :meth:`uninstall` reverts them."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, module_name, class_name, attributes in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                original = vars(owner)[attribute]
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(self.wrap(name, original.__func__))
                else:
                    patched = self.wrap(name, original)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ results
    @property
    def spans(self) -> int:
        """Spans recorded so far, kept or not."""
        return sum(self.calls)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        return {name: (self.calls[i], self.own[i]) for i, name in enumerate(self.names)}

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept spans as Chrome trace events (``chrome://tracing``, Perfetto)."""
        origin = self.start[0] if self.start else 0.0
        events = [
            {
                "name": self.names[self.name_id[i]],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((self.start[i] - origin) * 1e6, 3),
                "dur": round((self.end[i] - self.start[i]) * 1e6, 3),
                "args": {"parent": self.parent[i]},
            }
            for i in range(len(self.start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "spansRecorded": self.spans}))
