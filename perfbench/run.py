"""Mosaic's benchmark: one command, every end-to-end metric, checked.

    python3 perfbench/run.py --workload paper-fleet --seed 20190101 --seconds 45 --trace 0

Set-up (timed as ``setup_s``, median of three) generates the workload's
fleet from the seed, writes its ``.mosd`` traces and compiles the
service pool.  A fresh interpreter (``measure.py``) then runs the
measured calls on those files only.  Every time is scaled to a
reference host speed by probe bursts taken around it (``hostspeed.py``).
With ``--trace 0`` the last line of output is the JSON result with
every end-to-end metric; the lines before it give each metric with its
unit, sample count and median as measured, and the service's figures.  With
``--trace 1`` the run is traced instead and the metrics are per layer;
the spans are written to ``.perfbench_work/monitor-<workload>-<seed>.json``.

The command exits 1 when any output check fails and 2 when the Mosaic
sources are not beside it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
#: A run must end within 180 s; the measured process gets what set-up left.
RUN_DEADLINE_S = 175.0

#: End-to-end metric name -> unit, in printed order.
END_TO_END = {
    "first_run_s": "s",
    "stream_s": "s",
    "repeat_run_s": "s",
    "repeat_run_2w_s": "s",
    "accuracy": "ratio",
    "setup_s": "s",
}
#: The service's figures: printed with the end-to-end metrics, but not
#: in the result JSON and not bounded (see README, "Noise").
SERVICE_FIGURES = {
    "job_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "read_p50_ms": "ms",
    "job_p90_ms": "ms",
    "read_p99_ms": "ms",
}


def layer_unit(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_n"):
        return "count"
    if name.endswith(("_bytes", "bytes_read")):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def end_to_end(raw: dict, setup: dict[str, list[float]],
               accuracy: float, n_scored: int) -> tuple[dict, dict]:
    """Metric name -> (value, sample count), tails included: each timed
    metric is the median of its samples at the reference host speed.
    Also the same medians as measured."""
    from measure import BATCH_RUNS, SERVICE, service_latency

    out, measured = {}, {}
    for name in BATCH_RUNS + SERVICE:
        key = name if name in SERVICE else f"{name}_s"
        samples = raw["samples"][name]
        out[key] = (statistics.median(samples), len(samples))
        measured[key] = statistics.median(raw["measured"][name])
    tails = service_latency(raw["jobs_ms"], raw["reads_ms"], raw["jobs_wall_s"])
    out.update((name, tails[name]) for name in ("job_p90_ms", "read_p99_ms"))
    out["accuracy"] = (accuracy, n_scored)
    out["setup_s"] = (statistics.median(setup["samples"]), len(setup["samples"]))
    measured["setup_s"] = statistics.median(setup["measured"])
    return out, measured


def score(results_path: str, truth: dict) -> tuple[float, int]:
    """Exact share of scored results that match the ground truth."""
    from repro.analysis.accuracy import estimate_accuracy
    from repro.core.result import load_results_jsonl

    results = list(load_results_jsonl(results_path))
    n_scored = sum(1 for r in results if r.job_id in truth)
    report = estimate_accuracy(results, truth, sample_size=n_scored)
    return report.accuracy, n_scored


def make_job(workload: str, seed: int, seconds: float, trace: bool, inputs: Any, work: str) -> dict:
    """The measured process's instructions: what to run and on which files."""
    tag = f"{workload}-{seed}"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "traces": inputs.traces,
        "pool": inputs.pool,
        "work": work,
        "results_out": os.path.join(work, "results.jsonl"),
        "monitor_out": os.path.join(WORK, f"monitor-{tag}.json"),
        "run_id": f"{tag}-{os.getpid()}",
    }


def run_measured(job: dict, timeout_s: float) -> dict | None:
    """Run ``measure.py`` on ``job``; its parsed result, or ``None``."""
    job_path = os.path.join(job["work"], "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), job_path],
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout_s,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: measured process ran past {timeout_s:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: measured process exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: Mosaic sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, build_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{workload.name}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    host = HostSpeed()
    timed_setup: list[tuple[float, int]] = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        burst = host.sample()
        inputs = build_inputs(workload, args.seed, os.path.join(work, "inputs"))
        timed_setup.append((inputs.setup_s, burst))
    host.sample()
    setup = {
        "samples": [seconds * host.scale(b) for seconds, b in timed_setup],
        "measured": [seconds for seconds, _b in timed_setup],
    }

    job = make_job(workload.name, args.seed, args.seconds, bool(args.trace), inputs, work)
    try:
        raw = run_measured(job, max(1.0, RUN_DEADLINE_S - (time.monotonic() - started)))
        if raw is None:
            return 1

        metrics: dict[str, tuple[float, int, str]] = {}
        measured: dict[str, float] = {}
        if args.trace:
            for name, value in raw["layers"].items():
                metrics[name] = (value, 1, layer_unit(name))
        else:
            accuracy, n_scored = score(job["results_out"], inputs.truth)
            values, measured = end_to_end(raw, setup, accuracy, n_scored)
            for name, unit in {**END_TO_END, **SERVICE_FIGURES}.items():
                metrics[name] = (*values[name], unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    for problem in raw["problems"]:
        print(f"check failed: {problem}")
    for name, (value, n, unit) in metrics.items():
        note = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"{name:36s} {value:14.6g} {unit:6s} n={n}{note}")
    print(f"{'error_rate':36s} {failed / max(attempted, 1):14.6g} {'ratio':6s} n={attempted}")
    correct = failed == 0 and not raw["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, _n, unit) in metrics.items()
            if name not in SERVICE_FIGURES
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
