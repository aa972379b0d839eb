"""Process-pool building blocks (the repo's Dispy substitute).

The paper runs per-trace categorization in parallel across a 64-core
node using the Dispy library; offline and single-node here, the pool is
a :mod:`concurrent.futures` process pool driven by
:func:`~repro.parallel.resilient.resilient_imap`.  This module holds
what that engine is built from:

* :class:`ParallelConfig` — worker count (``max_workers=0`` is serial,
  in process: tests, debugging, and tiny inputs where fork overhead
  dominates), the backpressure window, and the resilience knobs;
* :class:`TaskFailure` — per-item isolation: one failing trace never
  aborts the corpus run;
* the worker-side binding: the mapped function must be a module-level
  picklable callable, the usual multiprocessing constraint.  It is
  shipped to each worker exactly once (via the pool initializer), never
  re-pickled per work item.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, TypeVar

from .retry import FailureKind, RetryPolicy

__all__ = ["TaskFailure", "ParallelConfig"]

T = TypeVar("T")
R = TypeVar("R")


def _exc_qualname(exc: BaseException) -> str:
    """Module-qualified exception class name (bare for builtins)."""
    cls = type(exc)
    module = getattr(cls, "__module__", "") or ""
    if module in ("builtins", "__main__"):
        return cls.__qualname__
    return f"{module}.{cls.__qualname__}"


@dataclass(slots=True, frozen=True)
class TaskFailure:
    """Captured failure of one work item.

    ``error_type`` keeps the historical bare class name; ``qualname``
    carries the module-qualified name so callers can distinguish
    ``repro.darshan.errors.TraceReadError`` from any other
    ``TraceReadError``.  ``kind`` places the failure in the
    :class:`~repro.parallel.retry.FailureKind` taxonomy and ``attempts``
    records how many executions were spent on the item (1 = no retry).
    """

    index: int
    error_type: str
    message: str
    traceback_text: str
    kind: FailureKind = FailureKind.EXCEPTION
    qualname: str = ""
    attempts: int = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        retried = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"item {self.index}: [{self.kind.value}] "
            f"{self.error_type}: {self.message}{retried}"
        )


@dataclass(slots=True, frozen=True)
class ParallelConfig:
    """Execution knobs for :func:`~repro.parallel.resilient.resilient_imap`."""

    #: 0 = serial in-process; None = os.cpu_count().
    max_workers: int | None = None
    #: Items in flight per worker when ``max_pending`` is unset.
    chunksize: int = 8
    #: Maximum submitted-but-unfinished items.  ``None`` derives
    #: ``workers * chunksize`` — enough to keep every worker fed while
    #: bounding how many loaded items exist at once.
    max_pending: int | None = None

    # -- resilience knobs (resolved against a RetryPolicy; ``None``
    # -- inherits the policy/MosaicConfig default) -----------------------
    #: Per-task wall-clock deadline in seconds (0 disables deadlines).
    task_timeout_s: float | None = None
    #: Re-executions granted to transiently-failing items.
    max_retries: int | None = None
    #: First retry backoff delay; doubles per retry.
    backoff_base_s: float | None = None
    #: Ceiling on any single backoff delay.
    backoff_cap_s: float | None = None
    #: Pool rebuilds tolerated per run before aborting.
    max_pool_rebuilds: int | None = None
    #: Crash events implicating one item before POISON quarantine.
    max_item_crashes: int | None = None

    def __post_init__(self) -> None:
        if self.task_timeout_s is not None and self.task_timeout_s < 0:
            raise ValueError("task_timeout_s must be >= 0 (0 disables)")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s is not None and self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s is not None and self.backoff_cap_s < 0:
            raise ValueError("backoff_cap_s must be >= 0")
        if self.max_pool_rebuilds is not None and self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.max_item_crashes is not None and self.max_item_crashes < 1:
            raise ValueError("max_item_crashes must be >= 1")

    _RETRY_FIELDS = (
        "task_timeout_s",
        "max_retries",
        "backoff_base_s",
        "backoff_cap_s",
        "max_pool_rebuilds",
        "max_item_crashes",
    )

    def retry_policy(self, base: RetryPolicy | None = None) -> RetryPolicy:
        """Effective :class:`~repro.parallel.retry.RetryPolicy`.

        Fields left ``None`` here inherit from ``base`` (the pipeline
        passes the :class:`~repro.core.thresholds.MosaicConfig`-derived
        defaults); explicitly-set fields win.
        """
        policy = base if base is not None else RetryPolicy()
        overrides = {
            name: getattr(self, name)
            for name in self._RETRY_FIELDS
            if getattr(self, name) is not None
        }
        return replace(policy, **overrides) if overrides else policy

    def resolved_workers(self) -> int:
        if self.max_workers is None:
            return os.cpu_count() or 1
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        return self.max_workers

    def resolved_pending(self) -> int:
        if self.max_pending is not None:
            if self.max_pending < 1:
                raise ValueError("max_pending must be >= 1")
            return self.max_pending
        return max(1, self.resolved_workers()) * max(1, self.chunksize)


# ----------------------------------------------------------------------
# Worker-side function binding.  ``fn`` is pickled once per worker via
# the pool initializer instead of once per task tuple: task payloads are
# just ``(index, item)``, which matters when ``fn`` is a closure-heavy
# partial and items number in the hundreds of thousands.
_WORKER_FN: Callable[..., Any] | None = None


def _bind_worker_fn(fn: Callable[[T], R]) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _guarded(
    fn: Callable[[T], R], index: int, item: T
) -> tuple[int, R | None, TaskFailure | None]:
    try:
        return index, fn(item), None
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        return (
            index,
            None,
            TaskFailure(
                index=index,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
                kind=FailureKind.EXCEPTION,
                qualname=_exc_qualname(exc),
            ),
        )


def _run_bound(task: tuple[int, T]) -> tuple[int, Any, TaskFailure | None]:
    index, item = task
    assert _WORKER_FN is not None, "worker initializer did not run"
    return _guarded(_WORKER_FN, index, item)


def _pool(fn: Callable[[T], R], workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_bind_worker_fn,
        initargs=(fn,),
    )
