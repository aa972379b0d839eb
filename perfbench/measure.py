"""The measured process: runs Mosaic on inputs that set-up wrote.

Started by ``run.py`` as a fresh interpreter, so its peak RSS covers the
measured calls and not the in-memory fleet set-up generated.  It reads
one job description (JSON file given as the only argument) and prints
one JSON line of samples (as measured and scaled to the reference host
speed), counts and check outcomes.

A round takes the fleet through the batch runs (first run, repeat runs,
stream) and then serves two pool stores as jobs, with a host-speed
probe burst before each timed part.  Untraced mode
repeats rounds until the run's seconds are used, so every metric
samples the whole run.
Traced mode runs untraced, traced, untraced rounds; the traced round
gives the per-layer numbers and the untraced pair its overhead.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import asyncio  # noqa: E402
import gc  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any  # noqa: E402

import repro.columnar.compile as col_compile  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from repro.columnar.store import detach_all  # noqa: E402
from repro.core.pipeline import run_pipeline_store, run_pipeline_stream  # noqa: E402
from repro.core.result import save_results_jsonl  # noqa: E402
from repro.darshan.source import DirectorySource  # noqa: E402
from repro.parallel import ParallelConfig  # noqa: E402
from repro.service import MosaicServer  # noqa: E402

SERIAL = ParallelConfig(max_workers=0)
TWO_WORKERS = ParallelConfig(max_workers=2)
#: Rounds a run makes however slow the machine is.
MIN_ROUNDS = 3
#: Warm visits per cold job.
WARM_PER_COLD = 4
#: Pool stores served per round: 2 cold and 8 warm jobs.
STORES_PER_ROUND = 2
#: Reader think time between requests.  Client and server share one
#: interpreter here, so a reader with no pause would mostly measure its
#: own hold on the interpreter lock rather than the server.
READ_PAUSE_S = 0.003
HTTP_TIMEOUT_S = 60.0
BATCH_RUNS = ("first_run", "repeat_run", "repeat_run_2w", "stream")
#: Figures of one round's service part, one sample each per round.
SERVICE = ("job_p50_ms", "jobs_per_s", "read_p50_ms")


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


# -- batch -------------------------------------------------------------
def run_batch(job: dict, host: HostSpeed, tracer: Any = None) -> tuple[dict, dict]:
    """The fleet's first run, repeat runs (serial and two workers) and
    stream, each after a host-speed burst.  Returns per run its seconds
    and the index of the burst before it, and the results of each.
    """
    store = os.path.join(job["work"], "first.mosc")
    traces = job["traces"]
    times: dict[str, tuple[float, int]] = {}
    out: dict[str, Any] = {}
    detach_all()

    burst = host.sample()
    t0 = time.perf_counter()
    with _span(tracer, "bench.first_run"):
        out["compile"] = col_compile.compile_corpus(DirectorySource(traces), store)
        out["first_run"] = run_pipeline_store(store, parallel=SERIAL)
    times["first_run"] = (time.perf_counter() - t0, burst)

    for name, parallel in (("repeat_run", SERIAL), ("repeat_run_2w", TWO_WORKERS)):
        detach_all()
        burst = host.sample()
        t0 = time.perf_counter()
        with _span(tracer, f"bench.{name}"):
            out[name] = run_pipeline_store(store, parallel=parallel)
        times[name] = (time.perf_counter() - t0, burst)

    burst = host.sample()
    t0 = time.perf_counter()
    with _span(tracer, "bench.stream"):
        out["stream"] = run_pipeline_stream(DirectorySource(traces), parallel=SERIAL)
    times["stream"] = (time.perf_counter() - t0, burst)

    detach_all()
    os.remove(store)
    return times, out


def check_batch(job: dict, out: dict, ledger: Ledger) -> None:
    """Every run succeeded per trace and serialized to the same bytes.

    The first round's first-run results are kept for scoring accuracy.
    """
    encoded: dict[str, bytes] = {}
    for name in BATCH_RUNS:
        res = out[name]
        ledger.record(res.preprocess.n_selected, res.n_failures,
                      f"{name}: {res.n_failures} failed traces" if res.n_failures else "")
        path = os.path.join(job["work"], f"{name}.jsonl")
        save_results_jsonl(res.results, path)
        with open(path, "rb") as fh:
            encoded[name] = fh.read()
        if name == "first_run" and not os.path.exists(job["results_out"]):
            os.replace(path, job["results_out"])
        else:
            os.remove(path)
    for name in BATCH_RUNS[1:]:
        if encoded[name] != encoded["first_run"]:
            n = out[name].preprocess.n_selected
            ledger.record(0, n, f"{name} results differ from first_run results")


# -- service -----------------------------------------------------------
def _request(endpoint: dict, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(endpoint["host"], endpoint["port"], timeout=HTTP_TIMEOUT_S)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _wait_finished(endpoint: dict, job_id: str) -> str:
    """Follow the job's event stream to its terminal event."""
    conn = http.client.HTTPConnection(endpoint["host"], endpoint["port"], timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            return f"events {resp.status}"
        while True:
            line = resp.readline()
            if not line:
                return "event stream ended early"
            if line.startswith(b"data:"):
                event = json.loads(line[5:])
                if event.get("event") == "finished":
                    return event.get("status", "")
                if event.get("event") == "drain":
                    return "drain"
    finally:
        conn.close()


def job_schedule(n_stores: int) -> list[int]:
    """Pool index per job: each store first cold, then warm visits
    spread over the stores already served."""
    order: list[int] = []
    warm = 0
    for i in range(n_stores):
        order.append(i)
        for _ in range(WARM_PER_COLD):
            order.append(warm % (i + 1))
            warm += 1
    return order


def round_stores(n_pool: int, k: int) -> list[int]:
    """The pool stores round ``k`` serves: the next ``STORES_PER_ROUND``
    in turn, so ten rounds serve twenty different stores cold."""
    return [(k * STORES_PER_ROUND + i) % n_pool for i in range(STORES_PER_ROUND)]


def _start_server(data_dir: str) -> tuple[MosaicServer, threading.Thread, dict]:
    server = MosaicServer(data_dir, port=0)
    thread = threading.Thread(target=lambda: asyncio.run(server.run()), daemon=True)
    thread.start()
    endpoint_path = os.path.join(data_dir, "server.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with open(endpoint_path, encoding="utf-8") as fh:
                endpoint = json.load(fh)
            if endpoint.get("pid") == os.getpid():
                return server, thread, endpoint
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.01)
    raise RuntimeError("server never published its endpoint")


def _stop_server(server: MosaicServer, thread: threading.Thread) -> None:
    loop = server._loop
    if loop is not None and not loop.is_closed():
        loop.call_soon_threadsafe(server.request_stop)
    thread.join(timeout=60)
    if thread.is_alive():
        raise RuntimeError("server thread did not stop")


def run_jobs(job: dict, k: int) -> dict:
    """Serve round ``k``'s pool stores to a submitter and a reader, both
    closed loops.

    Each call starts a server on a fresh data directory, so its result
    cache starts empty and every store's first job is cold.
    """
    pool = [job["pool"][i] for i in round_stores(len(job["pool"]), k)]
    data_dir = os.path.join(job["work"], "service")
    shutil.rmtree(data_dir, ignore_errors=True)
    server, thread, endpoint = _start_server(data_dir)
    jobs: list[dict] = []
    reads: list[tuple[float, int]] = []
    last_job = [""]
    done = threading.Event()

    def reader() -> None:
        paths = ["/metrics", "/catalog", "/jobs/"]
        i = 0
        while not done.is_set():
            path = paths[i % 3]
            i += 1
            if path == "/jobs/":
                if not last_job[0]:
                    continue
                path += last_job[0]
            t0 = time.perf_counter()
            try:
                status, _ = _request(endpoint, "GET", path)
            except (OSError, http.client.HTTPException):
                status = 0
            reads.append(((time.perf_counter() - t0) * 1e3, status))
            done.wait(READ_PAUSE_S)

    read_thread = threading.Thread(target=reader)
    read_thread.start()
    t_start = time.perf_counter()
    try:
        for idx in job_schedule(len(pool)):
            t0 = time.perf_counter()
            entry = {"store": pool[idx], "error": ""}
            try:
                status, body = _request(endpoint, "POST", "/jobs", json.dumps({"store": pool[idx]}).encode())
                if status != 202:
                    entry["error"] = f"submit {status}"
                else:
                    job_id = json.loads(body)["job_id"]
                    last_job[0] = job_id
                    state = _wait_finished(endpoint, job_id)
                    status, body = _request(endpoint, "GET", f"/jobs/{job_id}/results")
                    if state != "done" or status != 200:
                        entry["error"] = f"job {state}, results {status}"
                    entry["body"] = body
            except (OSError, http.client.HTTPException, ValueError) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["ms"] = (time.perf_counter() - t0) * 1e3
            jobs.append(entry)
        wall = time.perf_counter() - t_start
    finally:
        done.set()
        read_thread.join(timeout=HTTP_TIMEOUT_S * 2)
        shed = server.admission.total_shed()
        _stop_server(server, thread)
    return {"jobs": jobs, "reads": reads, "wall": wall, "shed": shed}


def check_service(svc: dict, ledger: Ledger, expected: dict[str, bytes], work: str) -> None:
    """Every job and read succeeded; every results body equals the
    batch path's JSONL for that store (computed once into ``expected``)."""
    for entry in svc["jobs"]:
        store = entry["store"]
        if entry["error"]:
            ledger.record(1, 1, f"job on {store}: {entry['error']}")
            continue
        if store not in expected:
            path = os.path.join(work, "oracle.jsonl")
            save_results_jsonl(run_pipeline_store(store, parallel=SERIAL).results, path)
            with open(path, "rb") as fh:
                expected[store] = fh.read()
            os.remove(path)
        ok = entry["body"] == expected[store]
        ledger.record(1, 0 if ok else 1, "" if ok else f"job on {store}: results differ from run_pipeline_store")
    bad = [status for _ms, status in svc["reads"] if not 200 <= status < 300]
    ledger.record(len(svc["reads"]), len(bad), f"{len(bad)} failed reads" if bad else "")


# -- modes ---------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least ``100 - q`` percent of the
    samples are at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def service_latency(jobs_ms: list[float], reads_ms: list[float], jobs_wall_s: float) -> dict:
    """Name -> (value, sample count) for the service latencies of one
    or more rounds."""
    return {
        "job_p50_ms": (percentile(jobs_ms, 50), len(jobs_ms)),
        "job_p90_ms": (percentile(jobs_ms, 90), len(jobs_ms)),
        "jobs_per_s": (len(jobs_ms) / jobs_wall_s, len(jobs_ms)),
        "read_p50_ms": (percentile(reads_ms, 50), len(reads_ms)),
        "read_p99_ms": (percentile(reads_ms, 99), len(reads_ms)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(job: dict, k: int, host: HostSpeed, tracer: Any = None) -> tuple[float, dict, dict]:
    """The batch runs, then round ``k``'s jobs, each part after a
    host-speed burst; wall seconds and outputs."""
    t0 = time.perf_counter()
    times, out = run_batch(job, host, tracer)
    burst = host.sample()
    svc = run_jobs(job, k)
    svc["burst"] = burst
    out["times"] = times
    return time.perf_counter() - t0, out, svc


def measure(job: dict) -> dict:
    """Rounds until the next one would end past the run's seconds, and
    at least ``MIN_ROUNDS``.

    Every sample is kept as measured and scaled to the reference host
    speed by the probe bursts around it (``hostspeed``)."""
    ledger = Ledger()
    # name -> [(value as measured, index of the burst before it)]
    timed: dict[str, list[tuple[float, int]]] = {name: [] for name in BATCH_RUNS + SERVICE}
    jobs_ms: list[float] = []
    reads_ms: list[float] = []
    jobs_wall = 0.0
    expected: dict[str, bytes] = {}
    host = HostSpeed()
    t_start = time.perf_counter()
    k = 0
    while True:
        _wall, out, svc = run_round(job, k, host)
        check_batch(job, out, ledger)
        check_service(svc, ledger, expected, job["work"])
        for name, sample in out["times"].items():
            timed[name].append(sample)
        round_jobs = [e["ms"] for e in svc["jobs"]]
        round_reads = [ms for ms, _status in svc["reads"]]
        for name, (value, _n) in service_latency(round_jobs, round_reads, svc["wall"]).items():
            if name in SERVICE:
                timed[name].append((value, svc["burst"]))
        jobs_ms += round_jobs
        reads_ms += round_reads
        jobs_wall += svc["wall"]
        # drop this round's results before the next one, so the peak
        # RSS is one round's and not two rounds' plus uncollected cycles
        del out, svc
        gc.collect()
        k += 1
        elapsed = time.perf_counter() - t_start
        if k >= MIN_ROUNDS and elapsed * (k + 1) / k > job["seconds"]:
            break
    host.sample()
    samples = {
        name: [value / host.scale(b) if name == "jobs_per_s" else value * host.scale(b)
               for value, b in values]
        for name, values in timed.items()
    }
    return {
        "samples": samples,
        "measured": {name: [value for value, _b in values] for name, values in timed.items()},
        "jobs_ms": jobs_ms,
        "reads_ms": reads_ms,
        "jobs_wall_s": jobs_wall,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
    }


def layer_metrics(tracer: Any, out: dict, svc: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    layers = tracer.layers()
    counts = tracer.counts

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(layers.get(name, {}).get("n", 0))

    stream = out["stream"].preprocess
    runs = [out[name] for name in BATCH_RUNS]
    hits, misses = counts["service.cache_hits"], counts["service.cache_misses"]
    return {
        "darshan.decode_s": total("darshan.decode"),
        "darshan.decode_n": calls("darshan.decode"),
        "darshan.bytes_read": counts["darshan.bytes_read"],
        "darshan.validate_s": total("darshan.validate"),
        "preprocess.scan_s": total("preprocess.scan"),
        "preprocess.reload_s": total("preprocess.reload"),
        "preprocess.selected_ratio": stream.n_selected / stream.n_input,
        "columnar.compile_self_s": own("columnar.compile"),
        "columnar.store_bytes": float(out["compile"].n_bytes),
        "columnar.attach_s": total("columnar.attach"),
        "columnar.scan_store_s": total("columnar.scan_store"),
        "columnar.guard_n": counts["columnar.guard_n"],
        "columnar.plan_slices_s": total("columnar.plan_slices"),
        "columnar.slices_n": counts["columnar.slices_n"],
        "columnar.categorize_slice_self_s": own("columnar.categorize_slice"),
        "columnar.metadata_events_batch_s": total("columnar.metadata_events_batch"),
        "merge.preprocess_operations_s": total("merge.preprocess_operations"),
        "core.temporality_s": total("core.temporality"),
        "core.periodicity_s": total("core.periodicity"),
        "core.metadata_s": total("core.metadata"),
        "core.categorize_trace_self_s": own("core.categorize_trace"),
        "core.result_build_s": total("core.result_build"),
        "core.result_encode_s": total("core.result_encode"),
        "cluster.mean_shift_s": total("cluster.mean_shift"),
        "cluster.mean_shift_n": calls("cluster.mean_shift"),
        "kernels.batched_s": total("kernels.batched"),
        "kernels.batched_n": calls("kernels.batched"),
        "parallel.imap_wait_s": own("parallel.imap"),
        "parallel.retries_n": float(sum(r.metrics.get("n_retries", 0) for r in runs)),
        "parallel.pool_rebuilds_n": float(sum(r.metrics.get("n_pool_rebuilds", 0) for r in runs)),
        "jobstore.settle_s": total("jobstore.settle"),
        "jobstore.settle_n": calls("jobstore.settle"),
        "io.fsync_n": calls("io.fsync"),
        "io.fsync_s": total("io.fsync"),
        "service.queue_wait_s": counts["service.queue_wait_s"],
        "service.exec_s": total("service.exec"),
        "service.http_s": total("service.http"),
        "service.cache_get_s": total("service.cache_get"),
        "service.cache_put_s": total("service.cache_put"),
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.catalog_fold_s": total("service.catalog_fold"),
        "service.shed_n": float(svc["shed"]),
        "trace.unattributed_ratio": tracer.unattributed_ratio(),
    }


def measure_traced(job: dict) -> dict:
    """Untraced, traced and untraced rounds over the same inputs (the
    same five pool stores each time, each on a fresh server)."""
    from tracing import Tracer, instrument

    ledger = Ledger()
    expected: dict[str, bytes] = {}
    host = HostSpeed()
    plain_a, out, plain_svc = run_round(job, 0, host)
    check_batch(job, out, ledger)
    check_service(plain_svc, ledger, expected, job["work"])
    tracer = Tracer(job["run_id"])
    with instrument(tracer):
        traced, out, svc = run_round(job, 0, host, tracer)
    metrics = layer_metrics(tracer, out, svc)
    check_batch(job, out, ledger)
    check_service(svc, ledger, expected, job["work"])
    plain_b, out, svc_b = run_round(job, 0, host)
    check_batch(job, out, ledger)
    check_service(svc_b, ledger, expected, job["work"])
    metrics["trace.overhead"] = traced / min(plain_a, plain_b) - 1.0
    # the service figures of the two untraced rounds' jobs and reads
    service = service_latency(
        [e["ms"] for e in plain_svc["jobs"] + svc_b["jobs"]],
        [ms for ms, _status in plain_svc["reads"] + svc_b["reads"]],
        plain_svc["wall"] + svc_b["wall"],
    )
    for name in ("job_p50_ms", "job_p90_ms", "jobs_per_s", "read_p50_ms", "read_p99_ms"):
        metrics[f"service.{name}"] = service[name][0]
    metrics["process.peak_rss_mb"] = peak_rss_mb()
    metrics["host.probe_ms"] = host.probe_s() * 1e3
    doc = tracer.monitor_document({"workload": job["workload"], "seed": job["seed"]})
    doc["metrics"] = metrics
    with open(job["monitor_out"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return {
        "layers": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = measure_traced(job) if job["trace"] else measure(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
