"""Workload definitions and their seeded inputs.

A workload is a synthetic fleet shape.  Its applications and their
runs are fixed per workload, as a site runs the same codes day after
day; the seed draws which runs arrive corrupted, how, and the job ids
(so the order the files sort in).  Without that split one seed's fleet
differs from the next mostly in the few checkpointing applications
whose heaviest run dominates categorization time: on a 20-app fleet,
categorizing one seed's selected runs took 1.5 times as long as
another's, timed back to back.  The benchmark would then measure the
seeds, not the program.

The inputs depend only on the workload name and the seed: both random
streams are seeded from digests of the name (and the seed), so two
seeds corrupt different runs and number the files differently, and one
seed always rebuilds the same bytes.
The program under test sees only what is written here: a directory of
``.mosd`` traces for the batch runs, and a pool of compiled ``.mosc``
stores cut from the same traces for the service.

The reason for each workload is in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.columnar.compile import compile_corpus
from repro.darshan.io_binary import save_binary
from repro.darshan.source import DirectorySource
from repro.darshan.trace import Trace
from repro.synth import FleetConfig, apportion, corrupt_trace, generate_run
from repro.synth.fleet import _allocate_runs
from repro.synth.groundtruth import GroundTruth

#: Seed used while the benchmark was written.
DEFAULT_SEED = 20190101
#: Held-out seed: a claimed gain must also hold here (it was not used
#: to tune the benchmark or any change measured with it).
HELD_OUT_SEED = 20241117
#: Stores in the service pool; each round serves five of them.
POOL_STORES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    n_apps: int
    mean_runs: float
    #: Pool store *p* holds every ``pool_stride``-th trace file,
    #: starting at file *p*.
    pool_stride: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-fleet", n_apps=20, mean_runs=48.0, pool_stride=20),
        Workload("unique-fleet", n_apps=300, mean_runs=1.0, pool_stride=20),
    )
}


def stream_seed(*parts: object) -> int:
    """A 32-bit seed derived from ``parts``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def generate(workload: Workload, seed: int) -> tuple[list[Trace], dict[int, GroundTruth]]:
    """The fleet of ``repro.synth.generate_fleet`` for this workload's
    ``FleetConfig``, with the applications and their runs drawn from the
    workload's fixed population stream, and which runs are corrupted,
    how, and the job ids in order drawn from ``seed``."""
    cfg = FleetConfig(n_apps=workload.n_apps, mean_runs=workload.mean_runs)
    apps = np.random.default_rng(stream_seed(workload.name, "population"))
    runs = np.random.default_rng(stream_seed(workload.name, seed))
    app_counts = apportion([c.app_share for c in cfg.profile], cfg.n_apps)
    run_budgets = apportion([c.run_share for c in cfg.profile], round(cfg.n_apps * cfg.mean_runs))
    traces: list[Trace] = []
    truths: list[GroundTruth | None] = []
    uid = 1000
    for cohort, n_apps_c, runs_c in zip(cfg.profile, app_counts, run_budgets):
        run_counts = _allocate_runs(n_apps_c, runs_c, cfg.run_spread_sigma, apps)
        for n_runs in run_counts:
            spec = cohort.build(uid, apps)
            for _ in range(n_runs):
                traces.append(generate_run(spec, 0, apps))
                truths.append(spec.truth)
            uid += 1
    n_valid = len(traces)
    frac = cfg.corruption_fraction
    for v in runs.choice(n_valid, size=round(frac / (1.0 - frac) * n_valid), replace=True):
        traces.append(corrupt_trace(traces[int(v)], runs))
        truths.append(None)
    fleet: list[Trace] = []
    truth: dict[int, GroundTruth] = {}
    for job_id, i in enumerate(runs.permutation(len(traces)), start=1):
        trace = traces[int(i)]
        trace.meta.job_id = job_id
        fleet.append(trace)
        if truths[int(i)] is not None:
            truth[job_id] = truths[int(i)]
    return fleet, truth


@dataclass
class Inputs:
    root: str
    traces: str
    pool: list[str]
    #: job id -> generator ground truth (valid traces only); only the
    #: benchmark sees it.
    truth: dict[int, GroundTruth]
    setup_s: float


def build_inputs(workload: Workload, seed: int, root: str) -> Inputs:
    """Generate the fleet, write its traces and compile the pool.

    Replaces anything already at ``root``.  All of it counts as set-up.
    """
    t0 = time.perf_counter()
    shutil.rmtree(root, ignore_errors=True)
    trace_dir = os.path.join(root, "traces")
    os.makedirs(trace_dir)
    traces, truth = generate(workload, seed)
    for trace in traces:
        save_binary(trace, os.path.join(trace_dir, f"job{trace.meta.job_id:08d}.mosd"))
    names = sorted(os.listdir(trace_dir))
    pool: list[str] = []
    for p in range(POOL_STORES):
        cut = os.path.join(root, "pool", f"p{p:02d}")
        os.makedirs(cut)
        for name in names[p :: workload.pool_stride]:
            os.link(os.path.join(trace_dir, name), os.path.join(cut, name))
        compile_corpus(DirectorySource(cut), cut + ".mosc")
        pool.append(cut + ".mosc")
    return Inputs(root=root, traces=trace_dir, pool=pool, truth=truth,
                  setup_s=time.perf_counter() - t0)

