"""Spans around calls into Mosaic's public functions, recorded from outside.

The benchmark measures the program without editing it: ``instrument``
rebinds public names where the *calling* module looks them up (for
example ``repro.columnar.batch.classify_temporality``), so every call on
the user's path passes through a thin wrapper that records one span.
Everything is restored on exit.

A span is ``(id, name, start, end, parent, run)``: ``parent`` is the
span open on the same thread when it started, ``run`` is the id of one
workload run.  Spans stay in memory; :meth:`Tracer.monitor_document`
turns them into one JSON document with per-layer totals and self times.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

import repro.columnar.batch as col_batch
import repro.columnar.compile as col_compile
import repro.columnar.scan as col_scan
import repro.columnar.store as col_store
import repro.core.categorizer as core_categorizer
import repro.core.periodicity as core_periodicity
import repro.core.pipeline as core_pipeline
import repro.core.preprocess as core_preprocess
import repro.kernels.batched as kernels_batched
import repro.service.server as service_server
from repro.core.result import CategorizationResult
from repro.darshan.source import DirectorySource
from repro.io import FaultableIO, scoped_io
from repro.parallel.jobstore import JobStore
from repro.service.cache import ResultCache
from repro.service.shards import ShardedCatalog

#: Span names the benchmark opens itself around each measured
#: operation.  Their self time is the work no layer span accounts for.
ENTRY_POINTS = (
    "bench.first_run",
    "bench.stream",
    "bench.repeat_run",
    "bench.repeat_run_2w",
    "service.job",
)


class Tracer:
    """In-memory span and counter sink shared by every thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span; spans opened inside it on this thread are
        its children."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrappers --------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``after(args, result)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_iter(self, fn: Callable[..., Iterator[Any]], name: str) -> Callable[..., Any]:
        """A generator function whose every ``next`` is one span: the
        time its consumer waits for the next item."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def wrap_async(
        self, fn: Callable[..., Any], name_of: Callable[[tuple], str]
    ) -> Callable[..., Any]:
        """A coroutine function timed from first step to return.

        Coroutines interleave on one thread, so these spans take no
        part in parent tracking: each is top-level.
        """

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append(
                    (next(self._ids), name_of(args), start, end, None, self.run_id)
                )

        return wrapper

    # -- aggregation -----------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        ``total_s`` sums only outermost spans of a name (a recursive
        call is not counted twice); ``self_s`` is each span's duration
        minus its direct children's.
        """
        by_id = {s[0]: s for s in self.spans}
        child_s: dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent, _run in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, parent, _run in self.spans:
            row = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            row["self_s"] += dur - child_s.get(span_id, 0.0)
            outer = parent is None or by_id[parent][1] != name
            if outer:
                row["n"] += 1
                row["total_s"] += dur
        return out

    def unattributed_ratio(self) -> float:
        """Self time left in the entry-point spans over their duration."""
        layers = self.layers()
        total = sum(layers.get(n, {}).get("total_s", 0.0) for n in ENTRY_POINTS)
        own = sum(layers.get(n, {}).get("self_s", 0.0) for n in ENTRY_POINTS)
        return own / total if total > 0 else 0.0

    def monitor_document(self, params: dict[str, Any]) -> dict[str, Any]:
        """One JSON-ready document in the shape of a ``--monitorjson``
        file: run parameters, entry-point timestamps, per-layer times,
        counters and every span."""
        timestamps: dict[str, list[list[float]]] = defaultdict(list)
        for _id, name, start, end, _parent, _run in self.spans:
            if name in ENTRY_POINTS:
                timestamps[name].append([start, end])
        return {
            "params": dict(params, run_id=self.run_id),
            "timestamps": dict(timestamps),
            "layers": self.layers(),
            "counts": dict(self.counts),
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run,
                }
                for span_id, name, start, end, parent, run in self.spans
            ],
        }


class CountingIO(FaultableIO):
    """The default VFS with every fsync recorded as an ``io.fsync`` span."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def fsync(self, fh: Any) -> None:
        with self._tracer.span("io.fsync"):
            super().fsync(fh)

    def fsync_dir(self, path: str) -> None:
        with self._tracer.span("io.fsync"):
            super().fsync_dir(path)


@contextmanager
def _patched(target: Any, attr: str, value: Any) -> Iterator[None]:
    original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route the user's path through ``tracer`` for the ``with`` body."""
    t = tracer

    def count_bytes(args: tuple, _result: Any) -> None:
        t.add("darshan.bytes_read", args[1].size_bytes)

    def count_slices(_args: tuple, result: Any) -> None:
        t.add("columnar.slices_n", len(result))

    def count_cache(_args: tuple, result: Any) -> None:
        t.add("service.cache_hits" if result is not None else "service.cache_misses")

    def count_guard(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t.add("columnar.guard_n")
            return fn(*args, **kwargs)

        return wrapper

    admitted: dict[str, float] = {}

    def on_admit(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, job: Any) -> Any:
            admitted[job.job_id] = time.perf_counter()
            return fn(self, job)

        return wrapper

    def on_execute(fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = t.wrap(fn, "service.job")

        @functools.wraps(fn)
        def wrapper(self: Any, job: Any) -> Any:
            start = admitted.pop(job.job_id, None)
            if start is not None:
                t.add("service.queue_wait_s", time.perf_counter() - start)
            return traced(self, job)

        return wrapper

    def route_name(args: tuple) -> str:
        target = args[1].target.split("?", 1)[0].rstrip("/")
        return "service.sse" if target.endswith("/events") else "service.http"

    build = CategorizationResult.__dict__["build"].__func__
    patches: list[tuple[Any, str, Any]] = [
        (DirectorySource, "load", t.wrap(DirectorySource.load, "darshan.decode", count_bytes)),
        (core_preprocess, "validate_trace", t.wrap(core_preprocess.validate_trace, "darshan.validate")),
        (col_compile, "validate_trace", t.wrap(col_compile.validate_trace, "darshan.validate")),
        (core_pipeline, "scan_corpus", t.wrap(core_pipeline.scan_corpus, "preprocess.scan")),
        (core_pipeline, "load_selected", t.wrap(core_pipeline.load_selected, "preprocess.reload")),
        (col_compile, "compile_corpus", t.wrap(col_compile.compile_corpus, "columnar.compile")),
        (col_store, "attach", t.wrap(col_store.attach, "columnar.attach")),
        (col_batch, "attach", t.wrap(col_batch.attach, "columnar.attach")),
        (col_scan, "scan_store", t.wrap(col_scan.scan_store, "columnar.scan_store")),
        (col_store.CorpusStore, "guard", count_guard(col_store.CorpusStore.guard)),
        (col_store.CorpusStore, "metadata_events_batch", t.wrap(
            col_store.CorpusStore.metadata_events_batch, "columnar.metadata_events_batch")),
        (col_batch, "plan_slices", t.wrap(col_batch.plan_slices, "columnar.plan_slices", count_slices)),
        (col_batch, "categorize_slice", t.wrap(col_batch.categorize_slice, "columnar.categorize_slice")),
        (core_categorizer, "preprocess_operations", t.wrap(
            core_categorizer.preprocess_operations, "merge.preprocess_operations")),
        (col_batch, "_merge_batch", t.wrap(col_batch._merge_batch, "merge.preprocess_operations")),
        (core_categorizer, "classify_temporality", t.wrap(
            core_categorizer.classify_temporality, "core.temporality")),
        (col_batch, "classify_temporality", t.wrap(col_batch.classify_temporality, "core.temporality")),
        (core_categorizer, "detect_periodicity", t.wrap(
            core_categorizer.detect_periodicity, "core.periodicity")),
        (col_batch, "detect_periodicity", t.wrap(col_batch.detect_periodicity, "core.periodicity")),
        (core_categorizer, "classify_metadata", t.wrap(core_categorizer.classify_metadata, "core.metadata")),
        (col_batch, "_batch_metadata", t.wrap(col_batch._batch_metadata, "core.metadata")),
        (core_pipeline, "categorize_trace", t.wrap(core_pipeline.categorize_trace, "core.categorize_trace")),
        (CategorizationResult, "build", classmethod(t.wrap(build, "core.result_build"))),
        (CategorizationResult, "to_dict", t.wrap(CategorizationResult.to_dict, "core.result_encode")),
        (service_server, "save_results_jsonl", t.wrap(
            service_server.save_results_jsonl, "core.result_encode")),
        (core_periodicity, "mean_shift", t.wrap(core_periodicity.mean_shift, "cluster.mean_shift")),
        (core_pipeline, "resilient_imap", t.wrap_iter(core_pipeline.resilient_imap, "parallel.imap")),
        (JobStore, "settle_result", t.wrap(JobStore.settle_result, "jobstore.settle")),
        (JobStore, "settle_failure", t.wrap(JobStore.settle_failure, "jobstore.settle")),
        (service_server, "run_pipeline_store", t.wrap(service_server.run_pipeline_store, "service.exec")),
        (service_server.MosaicServer, "_admit", on_admit(service_server.MosaicServer._admit)),
        (service_server.MosaicServer, "_execute", on_execute(service_server.MosaicServer._execute)),
        (service_server.MosaicServer, "_route", t.wrap_async(service_server.MosaicServer._route, route_name)),
        (ResultCache, "get", t.wrap(ResultCache.get, "service.cache_get", count_cache)),
        (ResultCache, "put", t.wrap(ResultCache.put, "service.cache_put")),
        (ShardedCatalog, "fold_result", t.wrap(ShardedCatalog.fold_result, "service.catalog_fold")),
    ]
    for name in kernels_batched.__all__:
        fn = getattr(kernels_batched, name)
        patches.append((kernels_batched, name, t.wrap(fn, "kernels.batched")))

    with ExitStack() as stack:
        for target, attr, value in patches:
            stack.enter_context(_patched(target, attr, value))
        stack.enter_context(scoped_io(CountingIO(tracer)))
        yield tracer
