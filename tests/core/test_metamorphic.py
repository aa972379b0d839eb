"""Metamorphic properties of the corpus pipeline, on every entry point.

Each property transforms the input in a way the paper's semantics say
cannot matter, then checks that the categories do not move.  They judge
the pipeline against MOSAIC's definitions rather than against another
implementation, so they hold for ``run_pipeline`` (in memory),
``run_pipeline_stream`` and ``run_pipeline_store`` alike:

* records are an unordered set per trace;
* rank ids are labels (``-1`` marks a shared record and stays put);
* record timestamps are relative to the job start, so moving a job in
  wall-clock time changes nothing;
* the corpus is a set: dedup ties break on job id, not input position;
* applications are categorized independently, so a corpus split by
  application categorizes to the union of its parts.
"""

from __future__ import annotations

import copy
import itertools
import random

import pytest

from repro.columnar import compile_corpus
from repro.core import run_pipeline, run_pipeline_store, run_pipeline_stream
from repro.darshan import InMemorySource
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

SERIAL = ParallelConfig(max_workers=0)

#: Whole days: a translation that keeps every epoch sum exact, so the
#: job run time (end - start) is bit-identical after the shift.
SHIFT_S = 7 * 86_400.0

_store_ids = itertools.count()


def _in_memory(traces, tmp_path):
    return run_pipeline(traces, parallel=SERIAL)


def _stream(traces, tmp_path):
    return run_pipeline_stream(InMemorySource(traces), parallel=SERIAL)


def _store(traces, tmp_path):
    path = tmp_path / f"corpus{next(_store_ids)}.mosc"
    compile_corpus(InMemorySource(traces), path)
    return run_pipeline_store(path, parallel=SERIAL)


ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [_in_memory, _stream, _store], ids=["in-memory", "stream", "store"]
)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_apps=24, mean_runs=2.0, seed=5))


def _categories(result):
    """Application → category set: what MOSAIC reports per application."""
    return {r.app_key: r.categories for r in result.results}


def _traces(fleet):
    return copy.deepcopy(fleet.traces)


def _baseline(entry, fleet, tmp_path):
    out = _categories(entry(_traces(fleet), tmp_path))
    assert len(out) >= 10, "fleet too small to exercise the properties"
    return out


@ENTRY_POINTS
def test_record_order_within_a_trace(entry, fleet, tmp_path):
    rng = random.Random(1)
    traces = _traces(fleet)
    for trace in traces:
        rng.shuffle(trace.records)
    assert _categories(entry(traces, tmp_path)) == _baseline(entry, fleet, tmp_path)


@ENTRY_POINTS
def test_rank_relabeling(entry, fleet, tmp_path):
    rng = random.Random(2)
    traces = _traces(fleet)
    for trace in traces:
        labels = list(range(trace.meta.nprocs))
        rng.shuffle(labels)
        for record in trace.records:
            if 0 <= record.rank < len(labels):
                record.rank = labels[record.rank]
    assert _categories(entry(traces, tmp_path)) == _baseline(entry, fleet, tmp_path)


@ENTRY_POINTS
def test_uniform_time_translation(entry, fleet, tmp_path):
    traces = _traces(fleet)
    for trace in traces:
        run_time = trace.meta.end_time - trace.meta.start_time
        trace.meta.start_time += SHIFT_S
        trace.meta.end_time += SHIFT_S
        assert trace.meta.end_time - trace.meta.start_time == run_time
    assert _categories(entry(traces, tmp_path)) == _baseline(entry, fleet, tmp_path)


@ENTRY_POINTS
def test_corpus_input_order(entry, fleet, tmp_path):
    traces = _traces(fleet)
    random.Random(3).shuffle(traces)
    shuffled = entry(traces, tmp_path)
    baseline = entry(_traces(fleet), tmp_path)
    assert _categories(shuffled) == _categories(baseline)
    # the same run of each application wins the dedup either way
    assert sorted(r.job_id for r in shuffled.results) == sorted(
        r.job_id for r in baseline.results
    )


@ENTRY_POINTS
def test_split_by_application(entry, fleet, tmp_path):
    traces = _traces(fleet)
    apps = sorted({(t.meta.uid, t.meta.exe) for t in traces})
    first = set(apps[::2])
    part_a = [t for t in traces if (t.meta.uid, t.meta.exe) in first]
    part_b = [t for t in traces if (t.meta.uid, t.meta.exe) not in first]
    assert part_a and part_b
    split = {**_categories(entry(part_a, tmp_path)), **_categories(entry(part_b, tmp_path))}
    assert split == _baseline(entry, fleet, tmp_path)
