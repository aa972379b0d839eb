"""The full MOSAIC corpus workflow (Fig. 1: ① validity & dedup →
② merging → ③ categorization → ④ output).

One driver runs the workflow.  The three public entry points are fronts
onto it that differ only in where the corpus comes from and how pass ②
is cut into pool tasks:

* :func:`run_pipeline_stream` — a lazy
  :class:`~repro.darshan.source.TraceSource`: a bounded-memory scan
  (pass ①, no trace retained), then one reloaded trace per task, loaded
  with backpressure against the process pool, so corpora larger than
  RAM are categorizable;
* :func:`run_pipeline_store` — a compiled columnar store: the scan
  replays the trace index, and each task is a multi-trace slice;
* :func:`run_pipeline` — an in-memory ``list[Trace]``, whose selected
  traces stay materialized on the result (the historical batch API).

Pass ② runs on the *resilient* executor
(:func:`~repro.parallel.resilient.resilient_imap`): worker crashes
rebuild the pool instead of aborting, hung traces are quarantined as
TIMEOUT, transient read errors are retried with backoff, and inputs
that repeatedly kill workers are quarantined as POISON.  With a
``journal_path``, every per-trace outcome is checkpointed to an
append-only JSONL journal as it completes, so a killed run resumes
(``resume=True``) exactly where it died; quarantined traces are listed
in a ``<journal>.quarantine.json`` manifest.  The journal is per trace
on every front, so a run started on one resumes on another.  See
docs/ROBUSTNESS.md.

A :class:`PipelineContext` threads configuration, error policy, and
observability (per-stage wall-clock timings plus counters: traces
scanned, bytes read, peak in-flight traces, failures, retries, pool
rebuilds) through the run; both surface on :class:`PipelineResult`.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..darshan.errors import (
    TraceFormatError,
    TraceReadError,
    TraceUnavailableError,
)
from ..darshan.source import InMemorySource, TraceSource
from ..darshan.trace import Trace
from ..parallel.executor import ParallelConfig, TaskFailure
from ..parallel.jobstore import JobStore
from ..parallel.resilient import resilient_imap
from ..parallel.retry import FailureKind, RetryPolicy, backoff_delay
from .categorizer import categorize_trace
from .governor import DegradationLevel
from .preprocess import (
    PreprocessResult,
    SelectedRef,
    SelectionPlan,
    load_selected,
    scan_corpus,
)
from .result import CategorizationResult
from .thresholds import DEFAULT_CONFIG, MosaicConfig

__all__ = [
    "PipelineContext",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_store",
    "run_pipeline_stream",
]

#: Worker-function decorator slot type (chaos injection, tracing, ...).
WorkerWrapper = Callable[[Callable[[Any], Any]], Callable[[Any], Any]]

#: Default execution: serial, in process.
_SERIAL = ParallelConfig(max_workers=0)


@dataclass(slots=True)
class PipelineContext:
    """Everything a pipeline run carries besides the corpus itself.

    One context per run: configuration in, per-stage observability out.
    ``error_policy`` decides what a per-trace categorization failure
    does — ``"collect"`` (the paper's behaviour: count it, keep going)
    or ``"raise"`` (abort on first failure; debugging).
    ``wrap_worker`` optionally decorates the picklable worker function
    before it ships to the pool — the chaos harness's injection point.
    """

    config: MosaicConfig = DEFAULT_CONFIG
    parallel: ParallelConfig = _SERIAL
    repair: bool = False
    error_policy: str = "collect"
    wrap_worker: WorkerWrapper | None = None
    #: Wall-clock seconds per stage, keyed ``<stage>_s``.
    timings: dict[str, float] = field(default_factory=dict)
    #: Monotonic counters: traces_scanned, bytes_read, n_unreadable,
    #: peak_inflight_traces, dedup_state_size, failures, n_retries,
    #: n_pool_rebuilds, n_timeouts, n_poisoned, n_quarantined, ...
    counters: dict[str, int] = field(default_factory=dict)
    #: Optional content-addressed result cache (duck-typed to keep core
    #: independent of :mod:`repro.service`; see
    #: :class:`repro.service.cache.ResultCache`): ``trace_key(crc)``
    #: derives the cache key from a store row's CRC chain, ``get(key)``
    #: returns a saved result payload or ``None``, ``put(key, payload)``
    #: stores one.  Consulted by :func:`run_pipeline_store` only — the
    #: per-trace CRC that addresses it exists only in ``.mosc`` v2.
    result_cache: Any | None = None
    #: Optional settle hook passed to the journal-backed
    #: :class:`~repro.parallel.jobstore.JobStore`: called as
    #: ``(kind, job_id, record, seq)`` after every durably-journaled
    #: outcome (``kind`` is ``"result"`` or ``"failure"``; ``seq`` is
    #: the journal settle-event sequence number, stable across
    #: resumes).  The service's SSE live stream; no effect without
    #: ``journal_path``.
    on_settle: Any | None = None

    def __post_init__(self) -> None:
        if self.error_policy not in ("collect", "raise"):
            raise ValueError(
                f"error_policy must be 'collect' or 'raise', "
                f"got {self.error_policy!r}"
            )

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a pipeline stage; accumulates into :attr:`timings`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            key = f"{name}_s"
            self.timings[key] = self.timings.get(key, 0.0) + (
                time.perf_counter() - t0
            )

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: int) -> None:
        """Record a high-water mark."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def retry_policy(self) -> RetryPolicy:
        """Effective retry policy: :class:`MosaicConfig` defaults,
        overridden by any explicitly-set :class:`ParallelConfig` field."""
        base = RetryPolicy(
            task_timeout_s=self.config.task_timeout_s,
            max_retries=self.config.max_retries,
            backoff_base_s=self.config.backoff_base_s,
            backoff_cap_s=max(self.config.backoff_base_s, RetryPolicy().backoff_cap_s),
            max_pool_rebuilds=self.config.max_pool_rebuilds,
        )
        return self.parallel.retry_policy(base)


@dataclass(slots=True)
class PipelineResult:
    """Everything produced by one corpus run."""

    preprocess: PreprocessResult
    #: One result per selected (unique-application) trace.
    results: list[CategorizationResult]
    #: Failures captured during categorization (never aborts the corpus).
    n_failures: int
    #: Wall-clock seconds spent per stage.
    timings: dict[str, float] = field(default_factory=dict)
    #: Per-stage counters from the run's :class:`PipelineContext`.
    metrics: dict[str, int] = field(default_factory=dict)

    def run_weights(self) -> list[int]:
        """Valid-run count of each result's application, aligned with
        :attr:`results` — the all-runs weighting of the paper's tables."""
        per_app = self.preprocess.runs_per_app
        return [per_app.get(r.app_key, 1) for r in self.results]

    @property
    def n_categorized(self) -> int:
        return len(self.results)


def _count_degradation(
    ctx: PipelineContext, results: list[CategorizationResult]
) -> None:
    """Surface the degradation ladder in the run metrics: one counter
    per non-FULL rung (``n_degraded_<level>``) plus the total, so a
    governed run is auditable from its metrics alone."""
    total = 0
    for r in results:
        if r.degradation is not DegradationLevel.FULL:
            total += 1
            ctx.count(f"n_degraded_{r.degradation.value}")
    if total:
        ctx.count("n_degraded", total)


def _context(
    context: PipelineContext | None,
    config: MosaicConfig,
    parallel: ParallelConfig | None,
    repair: bool,
) -> PipelineContext:
    return context or PipelineContext(
        config=config, parallel=parallel or _SERIAL, repair=repair
    )


def _scan_stage(
    ctx: PipelineContext, scan: Callable[..., SelectionPlan], corpus: Any
) -> SelectionPlan:
    """Pass ① plus its bookkeeping."""
    with ctx.stage("scan"):
        plan = scan(corpus, repair=ctx.repair)
    ctx.count("traces_scanned", plan.n_input)
    ctx.count("n_corrupted", plan.n_corrupted)
    ctx.count("n_unreadable", plan.n_unreadable)
    ctx.count("n_repaired", plan.n_repaired)
    # the scan's only retained state: one small ref per application
    ctx.gauge("dedup_state_size", plan.n_selected)
    return plan


# ----------------------------------------------------------------------
# Pass ② payloads.  A selected trace that stays unreadable after the
# parent-side retry budget travels to the worker as a _LoadFailure
# sentinel (keeping stream indexes aligned), where it raises a
# permanent, per-trace error instead of aborting the corpus.


@dataclass(slots=True, frozen=True)
class _LoadFailure:
    """A selected trace whose reload failed even with retries."""

    job_id: int
    error_type: str
    message: str


def _categorize_task(item: Any, config: MosaicConfig) -> list[CategorizationResult]:
    """Worker-side entry: one result per trace the task covers.

    A trace is a one-trace task and a store slice covers its rows.  A
    :class:`_LoadFailure` raises, failing only its own trace.
    """
    if isinstance(item, _LoadFailure):
        raise TraceUnavailableError(
            f"trace {item.job_id} unreadable after retries: "
            f"{item.error_type}: {item.message}"
        )
    if isinstance(item, Trace):
        return [categorize_trace(item, config)]
    # Imported lazily: repro.columnar imports from repro.core.
    from ..columnar.batch import categorize_slice

    return categorize_slice(item, config)


def _load_with_retry(
    source: TraceSource,
    entry: SelectedRef,
    policy: RetryPolicy,
    ctx: PipelineContext,
) -> Trace | _LoadFailure:
    """Reload one selected trace, retrying transient read failures.

    The scan already decoded this trace once, so a failure here is
    environmental (file mid-rewrite, I/O hiccup) until proven
    persistent — exactly the ``TraceFormatError``-on-reread class the
    retry policy covers.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return load_selected(source, entry)
        except (TraceFormatError, TraceReadError, OSError) as exc:
            if attempts > policy.max_retries:
                return _LoadFailure(
                    job_id=entry.job_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            ctx.count("n_reload_retries")
            delay = backoff_delay(attempts, policy, key=entry.job_id)
            if delay > 0:
                time.sleep(delay)


def _open_jobstore(
    journal_path: str | os.PathLike[str],
    resume: bool,
    n_selected: int,
    ctx: PipelineContext,
) -> tuple[JobStore, dict[int, CategorizationResult], set[int]]:
    """Open the journal-backed job store and rehydrate resumed state:
    the saved results, and the job ids a previous run quarantined.

    The core-layer shim over :class:`~repro.parallel.jobstore.JobStore`:
    the parallel layer traffics in plain dicts, so converting journaled
    payloads back into :class:`CategorizationResult` happens here.
    """
    jobstore = JobStore(journal_path, resume=resume, on_settle=ctx.on_settle)
    state = jobstore.open(n_selected=n_selected)
    if not jobstore.resuming:
        return jobstore, {}, set()
    ctx.count("n_journal_malformed", state.n_malformed)
    resumed = {
        job_id: CategorizationResult.from_dict(payload)
        for job_id, payload in state.completed.items()
    }
    return jobstore, resumed, set(state.quarantined)


def _settle_failure(
    jobstore: JobStore | None,
    ctx: PipelineContext,
    job_id: int,
    outcome: TaskFailure,
    trace_key: str,
) -> None:
    """Count (and, when journaled, durably record) one failed trace."""
    if outcome.kind in (FailureKind.TIMEOUT, FailureKind.POISON):
        ctx.count("n_quarantined")
    if jobstore is not None:
        jobstore.settle_failure(
            job_id,
            failure_kind=outcome.kind.value,
            error_type=outcome.error_type,
            message=outcome.message,
            trace_key=trace_key,
            attempts=outcome.attempts,
        )


#: ``(slot, entry)`` pairs: selected traces with their index into
#: ``plan.selected``, which is the result order.
_Members = list[tuple[int, SelectedRef]]
#: Settles one trace without the pool (a result-cache hit):
#: ``(slot, entry, result, payload)``.
_Settle = Callable[[int, SelectedRef, CategorizationResult, dict[str, Any]], None]
#: A front's task planner: pending members in, ``(members, item)`` pool
#: tasks out; the worker returns one result per member of ``item``.
_Planner = Callable[[_Members, _Settle], Iterable[tuple[_Members, Any]]]


def _source_key(entry: SelectedRef) -> str:
    return str(entry.ref.key)


def _run_pipeline(
    ctx: PipelineContext,
    plan: SelectionPlan,
    t0: float,
    plan_tasks: _Planner,
    trace_key: Callable[[SelectedRef], str] = _source_key,
    *,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    on_result: Callable[[SelectedRef, dict[str, Any]], None] | None = None,
    selected: list[Trace] | None = None,
) -> PipelineResult:
    """Pass ② and the run's bookkeeping: the driver behind every front.

    Traces a resumed journal already settled keep their saved outcome;
    the rest go to ``plan_tasks`` and through :func:`resilient_imap`.
    A task fails as a unit, so its failure is journaled once per member
    trace under ``trace_key``.  ``on_result`` receives the payload of
    every result the pool returns.  ``selected`` materializes
    :attr:`PreprocessResult.selected` for the batch API.
    """
    jobstore: JobStore | None = None
    resumed_results: dict[int, CategorizationResult] = {}
    quarantined: set[int] = set()
    if journal_path is not None:
        jobstore, resumed_results, quarantined = _open_jobstore(
            journal_path, resume, plan.n_selected, ctx
        )
    encode = jobstore is not None or on_result is not None

    slots: list[CategorizationResult | None] = [None] * len(plan.selected)
    n_failures = 0
    members: dict[int, _Members] = {}
    inflight = 0
    peak = 0

    def settle(
        slot: int,
        entry: SelectedRef,
        result: CategorizationResult,
        payload: dict[str, Any],
    ) -> None:
        slots[slot] = result
        if jobstore is not None:
            jobstore.settle_result(entry.job_id, payload)

    def draw(tasks: Iterable[tuple[_Members, Any]]) -> Iterator[Any]:
        nonlocal inflight, peak
        for index, (task, item) in enumerate(tasks):
            members[index] = task
            inflight += len(task)
            peak = max(peak, inflight)
            yield item

    try:
        with ctx.stage("categorize"):
            pending: _Members = []
            for slot, entry in enumerate(plan.selected):
                if entry.job_id in resumed_results:
                    slots[slot] = resumed_results[entry.job_id]
                elif entry.job_id in quarantined:
                    n_failures += 1
                else:
                    pending.append((slot, entry))
            ctx.count("n_resumed", len(plan.selected) - len(pending))

            fn: Callable[[Any], Any] = functools.partial(
                _categorize_task, config=ctx.config
            )
            if ctx.wrap_worker is not None:
                fn = ctx.wrap_worker(fn)
            stream = resilient_imap(
                fn,
                draw(plan_tasks(pending, settle)),  # mosaic: disable=MOS016 (task bookkeeping)
                ctx.parallel,
                policy=ctx.retry_policy(),
                on_count=ctx.count,
            )

            for index, outcome in stream:
                task = members.pop(index)
                inflight -= len(task)
                if isinstance(outcome, TaskFailure):
                    if ctx.error_policy == "raise":
                        raise RuntimeError(f"categorization failed: {outcome}")
                    n_failures += len(task)
                    for _slot, entry in task:
                        _settle_failure(  # mosaic: disable=MOS016 (bookkeeping, not analysis)
                            jobstore, ctx, entry.job_id, outcome, trace_key(entry)
                        )
                    continue
                for (slot, entry), result in zip(task, outcome):
                    payload = result.to_dict() if encode else {}
                    settle(slot, entry, result, payload)  # mosaic: disable=MOS016 (bookkeeping)
                    if on_result is not None:
                        on_result(entry, payload)
    finally:
        if jobstore is not None:
            jobstore.close()

    results = [r for r in slots if r is not None]
    ctx.count("n_selected", plan.n_selected)
    ctx.count("n_failures", n_failures)
    _count_degradation(ctx, results)
    ctx.gauge("peak_inflight_traces", peak)
    ctx.timings["total_s"] = time.perf_counter() - t0
    # historical stage name, kept for dashboards and the benchmarks
    ctx.timings.setdefault("preprocess_s", ctx.timings.get("scan_s", 0.0))

    return PipelineResult(
        preprocess=plan.to_result(selected),
        results=results,
        n_failures=n_failures,
        timings=dict(ctx.timings),
        metrics=dict(ctx.counters),
    )


def run_pipeline_stream(
    source: TraceSource,
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
    context: PipelineContext | None = None,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
) -> PipelineResult:
    """Run MOSAIC end to end over a lazy trace source, out of core.

    Memory model: pass ① holds one trace at a time plus per-application
    dedup refs; pass ② holds at most
    :meth:`~repro.parallel.executor.ParallelConfig.resolved_pending`
    selected traces in flight (1 when serial).  The full corpus is never
    resident, so corpus size is bounded by disk, not RAM.

    ``journal_path`` checkpoints every per-trace outcome as it completes
    (append-only JSONL); ``resume=True`` reloads an existing journal at
    that path first and skips traces it already settled — completed ones
    contribute their saved results, quarantined (TIMEOUT/POISON) ones
    stay quarantined.  ``context`` may be passed to override error
    policy, inject a worker wrapper, or share one metrics sink across
    runs; otherwise one is built from the arguments.
    """
    ctx = _context(context, config, parallel, repair)
    t0 = time.perf_counter()
    bytes_before = source.bytes_read
    plan = _scan_stage(ctx, scan_corpus, source)
    ctx.count("scan_bytes_read", source.bytes_read - bytes_before)
    policy = ctx.retry_policy()

    def tasks(pending: _Members, _settle: _Settle) -> Iterator[tuple[_Members, Any]]:
        # loaded lazily, as the pool draws them: backpressure
        loaded_before = source.bytes_read
        for member in pending:
            yield [member], _load_with_retry(source, member[1], policy, ctx)
        ctx.count("categorize_bytes_read", source.bytes_read - loaded_before)

    return _run_pipeline(
        ctx, plan, t0, tasks, journal_path=journal_path, resume=resume
    )


def run_pipeline_store(
    store_path: str | os.PathLike[str],
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
    context: PipelineContext | None = None,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    slice_ops: int | None = None,
) -> PipelineResult:
    """Run MOSAIC over a compiled columnar store (``repro compile``).

    The store-backed fast path: pass ① replays the eviction funnel from
    the trace index without decoding anything
    (:func:`repro.columnar.scan.scan_store`), and pass ② ships tiny
    ``(store_path, rows)`` descriptors to the pool instead of pickled
    traces — each worker reattaches the store read-only via mmap and
    categorizes whole slices through the segmented batch kernels
    (:func:`repro.columnar.batch.categorize_slice`), which are
    bitwise-equivalent to the per-trace pipeline.

    Journal semantics are unchanged and *per trace*: the journal header,
    per-trace result/failure records, and ``--resume`` behaviour are
    byte-identical to :func:`run_pipeline_stream` over the same corpus —
    a journal started on one path can be resumed on the other.  A whole
    failed slice journals one failure record per member trace.  The
    per-trace ``ResourceBudget`` is enforced per slice: the planner
    bounds each slice's working set by the budget, and each member trace
    still walks its own degradation ladder inside the worker.

    ``repair`` must match how the store was compiled (repair is baked in
    at compile time); a mismatch raises ``ValueError``.
    """
    # Imported lazily: repro.columnar imports from repro.core, so a
    # module-level import would cycle.
    from ..columnar.batch import plan_slices
    from ..columnar.scan import scan_store
    from ..columnar.store import attach

    ctx = _context(context, config, parallel, repair)
    t0 = time.perf_counter()
    # Attached via the per-process cache: repeat runs and resumed
    # runs reuse one verified read-only mapping instead of paying
    # open + CRC sweep per invocation; workers reattach the same way.
    store = attach(store_path, verify=True)
    plan = _scan_stage(ctx, scan_store, store)
    cache: Any = ctx.result_cache
    trace_crcs = getattr(store, "trace_crcs", None) if cache is not None else None
    cache_keys: dict[int, str] = {}

    def tasks(pending: _Members, settle: _Settle) -> Iterator[tuple[_Members, Any]]:
        # Content-addressed result cache: a trace whose CRC chain (plus
        # config/repair namespace, baked into the cache) was categorized
        # before is served its saved payload without re-running any
        # kernel.  Hits are still journaled, so resume and byte-identity
        # hold regardless of cache state.
        if trace_crcs is not None:
            uncached: _Members = []
            for slot, entry in pending:
                row = int(entry.ref.key)
                key = cache_keys[row] = cache.trace_key(int(trace_crcs[row]))
                payload = cache.get(key)
                if payload is None:
                    ctx.count("n_cache_misses")
                    uncached.append((slot, entry))
                else:
                    ctx.count("n_cache_hits")
                    settle(slot, entry, CategorizationResult.from_dict(payload), payload)
            pending = uncached
        by_row = {int(entry.ref.key): (slot, entry) for slot, entry in pending}
        slices = plan_slices(
            store,
            list(by_row),
            budget=ctx.config.budget,
            **({"target_ops": slice_ops} if slice_ops is not None else {}),
        )
        ctx.count("n_slices", len(slices))
        return (([by_row[row] for row in task.rows], task) for task in slices)

    def cache_put(entry: SelectedRef, payload: dict[str, Any]) -> None:
        cache.put(cache_keys[int(entry.ref.key)], payload)

    return _run_pipeline(
        ctx,
        plan,
        t0,
        tasks,
        lambda entry: f"{store.path}#{int(entry.ref.key)}",
        journal_path=journal_path,
        resume=resume,
        on_result=cache_put if trace_crcs is not None else None,
    )


def run_pipeline(
    traces: list[Trace],
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
) -> PipelineResult:
    """Run MOSAIC end to end over an in-memory corpus of traces.

    The batch front: the corpus is wrapped in an
    :class:`~repro.darshan.source.InMemorySource`, the selected traces
    are materialized on :attr:`PipelineResult.preprocess` (they are
    already resident), and each is one task on the resilient executor.

    ``parallel`` defaults to serial execution (``max_workers=0``), the
    right choice for small corpora and tests; pass
    ``ParallelConfig(max_workers=None)`` to use every core like the
    paper's Dispy deployment.
    """
    source = InMemorySource(traces)
    ctx = _context(None, config, parallel, repair)
    t0 = time.perf_counter()
    plan = _scan_stage(ctx, scan_corpus, source)
    with ctx.stage("scan"):
        selected = [load_selected(source, entry) for entry in plan.selected]

    def tasks(pending: _Members, _settle: _Settle) -> Iterator[tuple[_Members, Any]]:
        return (([member], selected[member[0]]) for member in pending)

    return _run_pipeline(ctx, plan, t0, tasks, selected=selected)
