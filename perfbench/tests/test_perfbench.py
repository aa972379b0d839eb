"""Tests of the benchmark itself: seeded inputs, exact counts, exits.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  They use a small fleet so the whole file takes well under a
minute; the measured workloads differ only in fleet size.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from measure import STORES_PER_ROUND, WARM_PER_COLD, job_schedule, round_stores  # noqa: E402
from run import make_job, run_measured  # noqa: E402
from workloads import POOL_STORES, WORKLOADS, Workload, build_inputs, generate  # noqa: E402

SMALL = Workload("paper-fleet", n_apps=20, mean_runs=3.0, pool_stride=8)

#: Counts a later change may cite; they must repeat exactly.
EXACT_COUNTS = (
    "columnar.guard_n",
    "io.fsync_n",
    "jobstore.settle_n",
    "kernels.batched_n",
    "darshan.decode_n",
    "columnar.slices_n",
    "cluster.mean_shift_n",
)


def digest_inputs(inputs) -> str:
    """Content digest of every trace file, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(inputs.traces)):
        h.update(name.encode())
        with open(os.path.join(inputs.traces, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_one_seed_always_builds_the_same_inputs(tmp_path):
    a = build_inputs(SMALL, 7, str(tmp_path / "a"))
    b = build_inputs(SMALL, 7, str(tmp_path / "b"))
    assert digest_inputs(a) == digest_inputs(b)
    assert a.truth == b.truth


def test_another_seed_changes_the_runs_but_not_the_applications(tmp_path):
    a = build_inputs(SMALL, 7, str(tmp_path / "a"))
    b = build_inputs(SMALL, 8, str(tmp_path / "b"))
    assert digest_inputs(a) != digest_inputs(b)
    apps_a = {t.meta.app_key for t in generate(SMALL, 7)[0]}
    apps_b = {t.meta.app_key for t in generate(SMALL, 8)[0]}
    assert apps_a == apps_b


def test_schedule_is_one_cold_job_in_five_and_warm_jobs_revisit():
    order = job_schedule(5)
    step = 1 + WARM_PER_COLD
    assert len(order) == 5 * step
    for i in range(5):
        assert order[i * step] == i
        assert set(order[i * step + 1 : (i + 1) * step]) <= set(range(i + 1))


def test_rounds_in_turn_serve_every_pool_store_cold():
    rounds = POOL_STORES // STORES_PER_ROUND
    served = {i for k in range(rounds) for i in round_stores(POOL_STORES, k)}
    assert served == set(range(POOL_STORES))


def test_a_time_is_scaled_by_the_probe_bursts_around_it():
    host = HostSpeed()
    host.bursts = [[0.004] * 3, [0.016] * 3, [0.008] * 3]
    assert host.scale(0) == pytest.approx(REFERENCE_PROBE_S / 0.010)
    assert host.scale(1) == pytest.approx(REFERENCE_PROBE_S / 0.012)
    first = host.sample()
    assert first == 3 and len(host.bursts[first]) == 3
    assert all(p > 0 for p in host.bursts[first])


def test_two_traced_runs_of_one_seed_give_identical_counts(tmp_path):
    inputs = build_inputs(SMALL, 7, str(tmp_path / "inputs"))
    counts = []
    for k in range(2):
        work = tmp_path / f"work{k}"
        work.mkdir()
        job = make_job(SMALL.name, 7, 1.0, True, inputs, str(work))
        job["monitor_out"] = str(work / "monitor.json")
        raw = run_measured(job, 300.0)
        assert raw is not None
        assert raw["failed"] == 0, raw["problems"]
        counts.append({name: raw["layers"][name] for name in EXACT_COUNTS})
        assert os.path.getsize(job["monitor_out"]) > 0
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_names_match_benchmark_json(name):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert name in declared
