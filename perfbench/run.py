"""The repository benchmark: four named workloads, end-to-end metrics, a layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``paper``, ``census_n8``,
``ensemble_n7`` and ``serve_n8``.  Each operation runs cold in a fresh
interpreter started by this script (``op.py``); ``serve_n8`` starts the
artifact server as a separate process and drives it from two closed-loop
keep-alive connections.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of traced operations, each paired with an untraced one so the
tracing overhead is measured.  The line before it records the environment,
the raw figures and the workload's named metrics (``classes_per_s``,
``grid_p50_ms``, ...).  End-to-end timings are scaled to a reference machine
speed measured by ``probe.py``, which runs beside every run (see README.md).

The script exits non-zero without a result line when the program under
test is missing or every operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import math
import os
import platform
import queue
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from report import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    REFERENCE_PROBE_MS,
    TraceView,
    median,
    percentile,
    prometheus_samples,
    p99,
    serve_layer_metrics,
)

clock = time.perf_counter
ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OP = os.path.join(HERE, "op.py")
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
PROBE = os.path.join(HERE, "probe.py")

#: A run must end within this many seconds, whatever its children do.
HARD_LIMIT_S = 170.0
#: Set-up samples per run (extra set-up-only interpreters top the count up).
MIN_SETUPS = 9
#: Full serve_n8 set-ups per run (build, start, warm-up); the last one serves.
SERVE_SETUPS = 3
#: Requests per untraced serve_n8 load, so p99 has 10 samples beyond it.
SERVE_MIN_REQUESTS = 1000
SERVE_CLIENTS = 2
#: Distinct n = 8 grid responses re-computed in-process per check: the first
#: ones of the seeded stream.  Each costs as much to check as to serve
#: (~0.8 ms per alpha); every windows and UCG grid response is checked.
GRID_CHECKED = 128
#: Attempted checks a failed operation stands for.
OP_ATTEMPTS = {"paper": 93, "census_n8": 4, "ensemble_n7": 9}
UNITS = dict(END_TO_END + PER_LAYER)


class Failure(RuntimeError):
    """The workload could not produce a single measured operation."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the paper workload's lstsq otherwise runs wider than
    # its wall time and its CPU figure spreads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Bench:
    """Children, servers and scratch space of one benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.started = clock()
        self.env = child_env()
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.work)
        self.ids = itertools.count()
        self.servers: List[subprocess.Popen] = []
        self.numpy: Optional[str] = None
        self.probe_samples: List[Tuple[float, float]] = []
        self.probe = subprocess.Popen(
            [sys.executable, PROBE], cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        threading.Thread(target=self._read_probe, daemon=True).start()

    def _read_probe(self) -> None:
        for line in self.probe.stdout:
            end, took = line.split()
            self.probe_samples.append((float(end), float(took)))

    def speed(self, lo: float, hi: float) -> float:
        """Reference ms per measured ms while ``[lo, hi]`` ran, from the probe.

        Uses the probe samples inside the window, or the three nearest to
        it when the window holds fewer.
        """
        samples = list(self.probe_samples)
        inside = [took for end, took in samples if lo <= end <= hi]
        if len(inside) < 3:
            middle = 0.5 * (lo + hi)
            inside = [took for _end, took in sorted(samples, key=lambda s: abs(s[0] - middle))[:3]]
        if not inside:
            raise Failure("the speed probe produced no samples")
        return REFERENCE_PROBE_MS / median(inside)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (clock() - self.started)

    def close(self) -> None:
        for server in list(self.servers):
            self.stop_server(server)
        self.probe.stdin.close()
        try:
            self.probe.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.probe.kill()
            self.probe.wait()
        kill_group(self.probe.pid)
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------ #

    def run_op(
        self, kind: str, seed: int, trace=False, setup_only=False, work=None, extra=()
    ) -> Optional[dict]:
        """One operation in a fresh interpreter; ``None`` if it failed."""
        out = os.path.join(self.work, f"op-{next(self.ids)}.json")
        cmd = [
            sys.executable, OP, kind, "--seed", str(seed), "--work", work or self.work,
            "--ref", WORK_ROOT, "--out", out, *extra,
        ]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        spawned = clock()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, start_new_session=True
        )
        try:
            proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            kill_group(proc.pid)
        if proc.returncode != 0 or not os.path.exists(out):
            return None
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["spawned"] = spawned
        if "setup_end" in result:
            result["setup_s"] = result["setup_end"] - spawned
        self.numpy = result.get("numpy") or self.numpy
        return result

    # ------------------------------------------------------------------ #

    def start_server(self, artifacts: str, traced: bool, trace_out: str = "") -> "Server":
        """The plain CLI server, or the traced launcher; returns once it has a port."""
        if traced:
            cmd = [sys.executable, LAUNCHER, "--dir", artifacts, "--trace-out", trace_out,
                   "--run-id", f"serve_n8-{self.seed}"]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", "--dir", artifacts, "--port", "0"]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.servers.append(proc)
        lines: "queue.Queue[str]" = queue.Queue()

        def pump() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put("")

        threading.Thread(target=pump, daemon=True).start()
        deadline = clock() + min(60.0, self.remaining())
        while clock() < deadline:
            try:
                line = lines.get(timeout=max(0.01, deadline - clock()))
            except queue.Empty:
                break
            if not line:
                break
            if line.startswith("serving ") and "http://" in line:
                port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                return Server(proc, port)
        self.stop_server(proc)
        raise Failure("the artifact server did not announce its port")

    def stop_server(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        kill_group(proc.pid)
        if proc in self.servers:
            self.servers.remove(proc)


def kill_group(pgid: int) -> None:
    """Stop anything a child left behind in its session (pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Server:
    def __init__(self, proc: subprocess.Popen, port: int) -> None:
        self.proc = proc
        self.port = port

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def request(self, method: str, path: str, body: Optional[str] = None):
        """One request on a fresh connection: ``(status, body bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


# --------------------------------------------------------------------------- #
# Cold-operation workloads: paper, census_n8, ensemble_n7
# --------------------------------------------------------------------------- #


def op_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def run_ops(bench: Bench, kind: str, seconds: float, trace: bool):
    """Cold operations until ``seconds`` pass; in trace mode, untraced/traced pairs."""
    plain: List[Optional[dict]] = []
    traced: List[Optional[dict]] = []
    deadline = clock() + seconds
    for index in itertools.count():
        began = clock()
        plain.append(bench.run_op(kind, op_seed(bench.seed, index)))
        if trace:
            traced.append(bench.run_op(kind, op_seed(bench.seed, index), trace=True))
        step = clock() - began
        if clock() >= deadline or bench.remaining() < 2.5 * step:
            break
    return plain, traced


def tally(kind: str, ops: List[Optional[dict]]):
    attempted = sum(op["attempted"] if op else OP_ATTEMPTS[kind] for op in ops)
    failed = sum(op["failed"] if op else OP_ATTEMPTS[kind] for op in ops)
    return attempted, failed


def op_workload(bench: Bench, kind: str, seconds: float, trace: bool):
    plain, traced = run_ops(bench, kind, seconds, trace)
    good = [op for op in plain if op]
    if not good or (trace and not any(traced)):
        raise Failure(f"every {kind} operation failed")
    attempted, failed = tally(kind, plain + traced)
    named = {"failed_ratio": (failed / attempted, "ratio")}
    if trace:
        pairs = [(p, t) for p, t in zip(plain, traced) if p and t]
        metrics = {
            name: median(t["layers"].get(name, 0.0) for _p, t in pairs)
            for name, _unit in PER_LAYER if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = median(
            (t["op_end"] - t["op_start"]) / (p["op_end"] - p["op_start"]) for p, t in pairs
        )
        return metrics, attempted, failed, named

    setups = list(good)
    while len(setups) < MIN_SETUPS and bench.remaining() > 20:
        probe = bench.run_op(kind, bench.seed, setup_only=True)
        if probe:
            setups.append(probe)
    wall_s = [op["op_end"] - op["op_start"] for op in good]
    raw = {
        "setup_s": median(op["setup_s"] for op in setups),
        "work_per_s": median(op["work"] / op["work_s"] for op in good),
        "op_p50_ms": 1000.0 * median(wall_s),
        "cpu_s": median(op["cpu_op"] for op in good),
    }
    factors = [bench.speed(op["op_start"], op["op_end"]) for op in good]
    metrics = {
        "setup_s": median(
            op["setup_s"] * bench.speed(op["spawned"], op["setup_end"]) for op in setups
        ),
        "work_per_s": median(
            op["work"] / op["work_s"] / f for op, f in zip(good, factors)
        ),
        "op_p50_ms": median(1000.0 * w * f for w, f in zip(wall_s, factors)),
        "cpu_s": median(op["cpu_op"] * f for op, f in zip(good, factors)),
        "peak_rss_mb": median(op["peak_rss_mb"] for op in good),
    }
    named.update({
        "setup_s": (raw["setup_s"], "s"),
        "cpu_s": (raw["cpu_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    })
    if kind == "paper":
        named["wall_s"] = (raw["op_p50_ms"] / 1000.0, "s")
    elif kind == "census_n8":
        named["classes_per_s"] = (raw["work_per_s"], "1/s")
        named["artifact_bytes"] = (median(op["artifact_bytes"] for op in good), "B")
        named["checksum"] = (sorted({op["checksum"] for op in good}), "sha256")
    else:
        named["draws_per_s"] = (raw["work_per_s"], "1/s")
    named["op_ms"] = ([round(1000.0 * w, 1) for w in wall_s], "ms")
    named["setup_samples_s"] = ([round(op["setup_s"], 4) for op in setups], "s")
    named["probe_ms"] = (median(REFERENCE_PROBE_MS / f for f in factors), "ms")
    named["raw"] = (raw, "as measured, before scaling to the reference speed")
    return metrics, attempted, failed, named


# --------------------------------------------------------------------------- #
# serve_n8: artifact server under a closed-loop load
# --------------------------------------------------------------------------- #

GRID_N8 = ("census_n8", "bcg", 2.0 * 8 * 8)
GRID_N7_UCG = ("census_n7_ucg", "ucg", 2.0 * 7 * 7)


def grid_body(rng: random.Random, spec) -> str:
    artifact, game, top = spec
    low, high = math.log(0.4), math.log(top)
    alphas = [math.exp(rng.uniform(low, high)) for _ in range(24)]
    return json.dumps({"alphas": alphas, "artifact": artifact, "game": game}, sort_keys=True)


def request_stream(seed):
    """The seeded mix: 70% n = 8 BCG grid, 20% n = 8 windows, 10% n = 7 UCG grid."""
    rng = random.Random(seed)
    while True:
        draw = rng.random()
        if draw < 0.7:
            yield "grid", "/v1/query/grid", grid_body(rng, GRID_N8)
        elif draw < 0.9:
            yield "windows", "/v1/query/windows", json.dumps({"artifact": "census_n8"})
        else:
            yield "ucg_grid", "/v1/query/grid", grid_body(rng, GRID_N7_UCG)


def warm_up(server: Server, seed: int) -> bool:
    """One request of each kind, from its own seeded stream."""
    seen = {}
    for kind, path, body in request_stream(f"warm-up-{seed}"):
        if kind not in seen:
            seen[kind] = server.request("POST", path, body)[0]
        if len(seen) == 3:
            return all(status == 200 for status in seen.values())


class Sample:
    __slots__ = ("kind", "start", "end", "status", "path", "body", "digest", "payload")

    def __init__(self, kind, start, end, status, path, body, payload, keep) -> None:
        self.kind, self.start, self.end, self.status = kind, start, end, status
        self.path, self.body = path, body
        self.digest = hashlib.sha256(payload).digest()
        self.payload = payload if keep else None


class Load:
    """Samples of one closed-loop load phase.

    Response bodies are kept only for the requests the in-process check
    will recompute: the first of every windows and UCG grid request, and
    the first ``GRID_CHECKED`` n = 8 grid requests of the seeded stream.
    Every other response keeps its digest, for the stability check.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.start = self.end = 0.0
        self.client_cpu = self.server_cpu = 0.0
        self.server_rss_mb = 0.0
        self._kept = set()
        self._grids = 0

    def keep(self, kind: str, body: str) -> bool:
        if body in self._kept or (kind == "grid" and self._grids >= GRID_CHECKED):
            return False
        self._grids += kind == "grid"
        self._kept.add(body)
        return True


def closed_loop(server: Server, stream, seconds: float, min_requests: int, limit: float) -> Load:
    """Two keep-alive clients, each sending its next request when the last returns."""
    load = Load()
    lock = threading.Lock()
    issued = [0]

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            while True:
                with lock:
                    done = clock() - load.start
                    if done >= limit or (done >= seconds and issued[0] >= min_requests):
                        return
                    issued[0] += 1
                    kind, path, body = next(stream)
                    keep = load.keep(kind, body)
                began = clock()
                try:
                    conn.request("POST", path, body, {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                    payload, status = b"", 0
                ended = clock()
                sample = Sample(kind, began, ended, status, path, body, payload, keep)
                with lock:
                    load.samples.append(sample)
                    if len(load.samples) == SERVE_MIN_REQUESTS:
                        load.server_rss_mb = server.peak_rss_mb()
        finally:
            conn.close()

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    server_cpu0 = server.cpu_s()
    load.start = clock()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.end = clock()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    load.server_cpu = server.cpu_s() - server_cpu0
    load.client_cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    return load


def check_responses(bench: Bench, artifact_dir: str, samples: List[Sample]) -> int:
    """Failed requests: non-200, unstable, or unlike the in-process QueryAPI answer."""
    failed = 0
    digests: Dict[tuple, bytes] = {}
    cases = []
    for sample in samples:
        if sample.status != 200:
            failed += 1
            continue
        key = (sample.path, sample.body)
        if digests.setdefault(key, sample.digest) != sample.digest:
            failed += 1
        if sample.payload is not None:
            cases.append([sample.path, sample.body, sample.payload.decode("utf-8")])
    cases_path = os.path.join(bench.work, "cases.json")
    with open(cases_path, "w", encoding="utf-8") as handle:
        json.dump(cases, handle)
    verdict = bench.run_op(
        "serve_check", bench.seed, work=artifact_dir, extra=("--cases", cases_path)
    )
    if verdict is None:
        return len(samples)
    wrong = {(cases[i][0], cases[i][1]) for i in verdict["mismatched"]}
    return failed + sum(
        1 for s in samples if s.status == 200 and (s.path, s.body) in wrong
    )


def serve_setup(bench: Bench, index: int):
    """Build both artifacts, start the server, warm it up: ``(server, dir, seconds)``."""
    began = clock()
    artifact_dir = os.path.join(bench.work, f"serve-{index}")
    os.makedirs(artifact_dir)
    built = bench.run_op("serve_build", bench.seed, work=artifact_dir)
    if built is None:
        raise Failure("the serve_n8 artifact build failed")
    server = bench.start_server(os.path.join(artifact_dir, "artifacts"), traced=False)
    if not warm_up(server, bench.seed):
        raise Failure("the serve_n8 warm-up requests failed")
    return server, artifact_dir, clock() - began


def latency_ms(samples: List[Sample], kind: Optional[str] = None) -> List[float]:
    return [1000.0 * (s.end - s.start) for s in samples if kind is None or s.kind == kind]


def serve_workload(bench: Bench, seconds: float, trace: bool):
    stream = request_stream(bench.seed)
    limit = max(10.0, min(bench.remaining() - 60.0, seconds + 60.0))
    if trace:
        return serve_traced(bench, stream, seconds, limit)
    setups, raw_setups = [], []
    for index in range(SERVE_SETUPS):
        began = clock()
        server, artifact_dir, took = serve_setup(bench, index)
        setups.append(took * bench.speed(began, began + took))
        raw_setups.append(took)
        if index < SERVE_SETUPS - 1:
            bench.stop_server(server.proc)
            shutil.rmtree(artifact_dir, ignore_errors=True)
    load = closed_loop(server, stream, seconds, SERVE_MIN_REQUESTS, limit)
    factor = bench.speed(load.start, load.end)
    rss_end = server.peak_rss_mb()
    bench.stop_server(server.proc)
    attempted = len(load.samples)
    if attempted < SERVE_MIN_REQUESTS:
        raise Failure(f"only {attempted} serve_n8 requests completed")
    failed = check_responses(bench, artifact_dir, load.samples)
    every = sorted(latency_ms(load.samples))
    rps = attempted / (load.end - load.start)
    cpu = (load.client_cpu + load.server_cpu) / attempted
    metrics = {
        "setup_s": median(setups),
        "work_per_s": rps / factor,
        "op_p50_ms": percentile(every, 50) * factor,
        "cpu_s": cpu * factor,
        "peak_rss_mb": load.server_rss_mb,
    }
    named = {
        "failed_ratio": (failed / attempted, "ratio"),
        "setup_s": (median(raw_setups), "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (load.server_rss_mb, "MB", SERVE_MIN_REQUESTS),
        "server_peak_rss_end_mb": (rss_end, "MB", attempted),
        "query_rps": (rps, "1/s"),
    }
    for kind in (None, "grid", "windows", "ucg_grid"):
        samples = sorted(latency_ms(load.samples, kind))
        label = kind or "query"
        if samples:
            named[f"{label}_p50_ms"] = (percentile(samples, 50), "ms", len(samples))
            tail = p99(samples)
            if tail:
                named[f"{label}_p99_ms"] = (tail[0], "ms", len(samples), tail[1])
    named["setup_samples_s"] = ([round(value, 4) for value in raw_setups], "s")
    named["probe_ms"] = (REFERENCE_PROBE_MS / factor, "ms")
    return metrics, attempted, failed, named


def serve_traced(bench: Bench, stream, seconds: float, limit: float):
    """Half the load on the plain server, half on the traced launcher."""
    server, artifact_dir, _took = serve_setup(bench, 0)
    half = seconds / 2.0
    plain = closed_loop(server, stream, half, 1, limit / 2.0)
    bench.stop_server(server.proc)
    trace_out = os.path.join(artifact_dir, "trace.json")
    traced_server = bench.start_server(
        os.path.join(artifact_dir, "artifacts"), traced=True, trace_out=trace_out
    )
    if not warm_up(traced_server, bench.seed):
        raise Failure("the traced serve_n8 warm-up requests failed")
    before = prometheus_samples(traced_server.request("GET", "/metrics")[1].decode("utf-8"))
    traced = closed_loop(traced_server, stream, half, 1, limit / 2.0)
    after = prometheus_samples(traced_server.request("GET", "/metrics")[1].decode("utf-8"))
    bench.stop_server(traced_server.proc)
    with open(trace_out, encoding="utf-8") as handle:
        dump = json.load(handle)
    view = TraceView(dump, owner=dump["pid"])
    layers = serve_layer_metrics(
        view, before, after, traced.start, traced.end, len(traced.samples)
    )
    metrics = {name: layers.get(name, 0.0) for name, _unit in PER_LAYER}
    plain_mean = sum(latency_ms(plain.samples)) / max(1, len(plain.samples))
    traced_mean = sum(latency_ms(traced.samples)) / max(1, len(traced.samples))
    metrics["trace.overhead_ratio"] = traced_mean / plain_mean if plain_mean else 0.0
    samples = plain.samples + traced.samples
    failed = check_responses(bench, artifact_dir, samples)
    return metrics, len(samples), failed, {"failed_ratio": (failed / max(1, len(samples)), "ratio")}


# --------------------------------------------------------------------------- #


def source_digest() -> str:
    """sha256 over the program's sources: the commit identity without git."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper", "census_n8", "ensemble_n7", "serve_n8")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(args.seed)
    try:
        if args.workload == "serve_n8":
            metrics, attempted, failed, named = serve_workload(
                bench, args.seconds, bool(args.trace)
            )
        else:
            metrics, attempted, failed, named = op_workload(
                bench, args.workload, args.seconds, bool(args.trace)
            )
    except Failure as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": bench.numpy,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "named": {
            name: dict(zip(("value", "unit", "samples", "beyond"), fields))
            for name, fields in named.items()
        },
    }
    print(json.dumps(context, sort_keys=True))
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name, _unit in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
