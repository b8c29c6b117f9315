"""serve-hitmiss: a closed loop of client threads against ``python -m repro.serve start``.

The loop is closed because the repository's own client (``submit --wait``)
waits for each reply before sending the next request.  Three of every four
requests repeat one of a fixed pool of requests the set-up pre-filled into
the cache (cache reads); the fourth is a new input — a fresh data seed for
one of four apps at registry defaults — that the worker runs and the cache
then stores (cache writes).  A job is timed from submit to result fetched.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import layers
from sim import Checker, layer_metrics

APPS = ("mergesort", "fft2d", "knapfarm", "imagepipe")
MACHINE = "ibm-sp"
CLIENTS = 2
#: distinct repeated requests per app, pre-filled into the cache at set-up
POOL_PER_APP = 2
#: every MISS_EVERY-th request of a client is a new input
MISS_EVERY = 4
#: status poll interval, well under the server's 20 ms dispatcher tick
POLL_S = 0.005
JOB_TIMEOUT_S = 30.0
#: servers started (each with a fresh cache) for the set-up time median
SETUPS = 3
#: length of one closed-loop segment between host-speed probes
SEGMENT_S = 2.0
#: probes run in each pause between segments, and before each set-up
PAUSE_PROBES = 2
#: layers serve-hitmiss must exercise
EXPECTED_LAYERS = ("serve.server", "serve.protocol", "serve.cache", "serve.scheduler",
                   "serve.pool", "serve.executor", "trace", "verify.digest", "apps")


def _data_seed(seed: int, slot: int) -> int:
    return seed * 1_000_000 + slot


def pool_requests(seed: int) -> list[tuple[str, int]]:
    return [(app, _data_seed(seed, POOL_PER_APP * a + k))
            for a, app in enumerate(APPS) for k in range(POOL_PER_APP)]


def client_requests(seed: int, client: int):
    """Client *client*'s endless request sequence of (app, data seed, repeat)."""
    rng = random.Random(seed * 1009 + client)
    pool = pool_requests(seed)
    i = 0
    while True:
        if i % MISS_EVERY == MISS_EVERY - 1:
            fresh = i // MISS_EVERY
            yield APPS[(fresh + client) % len(APPS)], _data_seed(
                seed, 1000 + client * 100_000 + fresh), False
        else:
            app, data_seed = pool[rng.randrange(len(pool))]
            yield app, data_seed, True
        i += 1


def _requests(seed: int) -> list:
    return [client_requests(seed, c) for c in range(CLIENTS)]


def _body(app: str, data_seed: int) -> dict:
    return {"app": app, "params": {"seed": data_seed}, "machine": MACHINE,
            "backend": "deterministic"}


class Client:
    """HTTP calls to the server, one connection per call like the
    repository's own client (``urllib``).  A kept-alive connection would
    make each reply wait ~40 ms: the server writes headers and body in two
    sends, and Nagle's algorithm holds the second until the first is
    acknowledged."""

    def __init__(self, url: str):
        host, port = url.split("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn = http.client.HTTPConnection(self.host, self.port, timeout=JOB_TIMEOUT_S)
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def job(self, app: str, data_seed: int) -> dict:
        """Submit, poll until finished, fetch the result."""
        start = time.perf_counter()
        out = {"app": app, "seed": data_seed, "error": None}
        try:
            status, job = self.call("POST", "/v1/jobs", _body(app, data_seed))
            if status != 200:
                raise RuntimeError(f"submit returned {status}: {job}")
            out["id"], out["hit"] = job["id"], job["cache_hit"]
            while job["state"] not in ("done", "failed"):
                if time.perf_counter() - start > JOB_TIMEOUT_S:
                    raise RuntimeError(f"timed out in state {job['state']}")
                time.sleep(POLL_S)
                status, job = self.call("GET", f"/v1/jobs/{out['id']}")
                if status != 200:
                    raise RuntimeError(f"status returned {status}: {job}")
            if job["state"] == "failed":
                raise RuntimeError(f"job failed: {job.get('error')}")
            status, result = self.call("GET", f"/v1/jobs/{out['id']}/result")
            if status != 200:
                raise RuntimeError(f"result returned {status}: {result}")
            out["digest"] = result["record"]["digest"]
            out["makespan"] = result["record"]["elapsed"]
        except (OSError, http.client.HTTPException, RuntimeError, KeyError,
                json.JSONDecodeError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["end"] = time.perf_counter()
        out["start"] = start
        out["latency_ms"] = (out["end"] - start) * 1e3
        return out


class Server:
    """A ``repro.serve`` server process with one worker and a fresh cache."""

    def __init__(self, tmp: Path, env: dict, index: int, trace_dir: Path | None):
        self.cache_dir = tmp / f"cache-{index}"
        args = ["start", "--port", "0", "--workers", "1", "--cache-dir", str(self.cache_dir)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "servetraced.py"), str(trace_dir),
                   *args]
        self.stderr = open(tmp / f"server-{index}.err", "w")
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        self.url = self._await_url(deadline=time.monotonic() + 60)

    def worker_pids(self) -> list[int]:
        _, health = Client(self.url).call("GET", "/v1/health")
        return [w["pid"] for w in health["workers"]]

    def _await_url(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                text = self.proc.stdout.readline()
                if not text:
                    break
                if "listening on" in text:
                    return text.split("listening on", 1)[1].strip()
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("server did not start; see its stderr")

    def peak_rss_mb(self) -> float:
        return sum(common.pid_peak_rss_mb(pid) for pid in [self.proc.pid, *self.worker_pids()])

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                Client(self.url).call("POST", "/v1/shutdown")
            except (OSError, http.client.HTTPException, AttributeError):
                pass
            try:
                self.proc.wait(20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        self.proc.stdout.close()
        self.stderr.close()


def prefill(server: Server, seed: int) -> list[dict]:
    """Run the repeat pool through the server: the cache's first entries."""
    client = Client(server.url)
    return [client.job(app, data_seed) for app, data_seed in pool_requests(seed)]


def closed_loop(url: str, requests: list, seconds: float, smoke: bool) -> tuple[list[dict], float]:
    """Each client sends its next requests from *requests* for *seconds*."""
    jobs: list[dict] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def client_main(index: int) -> None:
        client = Client(url)
        for n, (app, data_seed, repeat) in enumerate(requests[index]):
            if (n >= MISS_EVERY) if smoke else time.perf_counter() - start >= seconds:
                return
            job = client.job(app, data_seed)
            job["repeat"] = repeat
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client_main, args=(c,)) for c in range(len(requests))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, time.perf_counter() - start


def probed_loop(url: str, seed: int, seconds: float, smoke: bool,
                probes: list[float]) -> tuple[list[dict], float]:
    """The closed loop in segments of about :data:`SEGMENT_S`, with the
    host-speed probe run between them while no job is in flight (a probe
    during the loop would compete with the server for the one CPU).

    Jobs overlap and the probes bracket whole segments, so every job, and
    every server set-up, is scaled by the run's mean probe: scaling each
    job by the probes around its segment made the tail, a handful of the
    slowest jobs, pick out the segments with the noisiest probes (ten-run
    spread 0.12 instead of 0.07), and each set-up by the probes just before
    it spread set-up time by 0.25 instead of 0.11."""
    requests = _requests(seed)
    segments = 1 if smoke else max(1, round(seconds / SEGMENT_S))
    jobs: list[dict] = []
    wall = 0.0
    for _ in range(segments):
        probes += [common.probe_ms() for _ in range(PAUSE_PROBES)]
        done, seconds_taken = closed_loop(url, requests, seconds / segments, smoke)
        jobs += done
        wall += seconds_taken
    probes += [common.probe_ms() for _ in range(PAUSE_PROBES)]
    return jobs, wall


def reference(app: str, data_seed: int, mode: str | None = None) -> dict:
    from repro.apps import registry
    from repro.serve.executor import result_digest

    result = registry.get(app).run({"seed": data_seed}, machine=MACHINE, mode=mode)
    return {"digest": result_digest(result), "makespan": result.elapsed}


def check_jobs(checker: Checker, jobs: list[dict], refs: dict, what: str) -> None:
    for job in jobs:
        key = f"{job['app']}:{job['seed']}"
        if job["error"] is not None:
            checker.check(False, f"{what} {key}: {job['error']}")
            continue
        if key not in refs:
            refs[key] = reference(job["app"], job["seed"])
        ref = refs[key]
        checker.check(job["digest"] == ref["digest"] and job["makespan"] == ref["makespan"],
                      f"{what} {key}: digest/makespan {job['digest'][:16]}/{job['makespan']!r}"
                      f" != {ref['digest'][:16]}/{ref['makespan']!r}")


def pool_references(seed: int, checker: Checker) -> dict:
    """The pool's references: computed on a second backend, and for the
    default seed also compared with the committed ones."""
    refs = {f"{app}:{s}": reference(app, s, mode="threads") for app, s in pool_requests(seed)}
    if seed == common.DEFAULT_SEED:
        committed = common.load_references()["serve-hitmiss"]
        for key, ref in refs.items():
            checker.check(committed.get(key) == ref,
                          f"threads-backend reference {key} != committed {committed.get(key)}")
        refs = dict(committed)
    return refs


def _metrics(url: str) -> dict:
    return Client(url).call("GET", "/v1/metrics")[1]


def _mark(url: str, mark: str) -> None:
    Client(url).call("GET", f"/v1/jobs/{mark}")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run(seed: int, seconds: float, trace: bool, smoke: bool, tmp: Path, env: dict,
        record_references: bool) -> dict:
    checker = Checker()
    if record_references:
        common.save_references("serve-hitmiss", {
            f"{app}:{s}": reference(app, s, mode="threads") for app, s in pool_requests(seed)})
    refs = pool_references(seed, checker)
    from repro.apps import registry

    out: dict = {"checker": checker, "apps": [
        (app, MACHINE, registry.get(app).defaults.get("nprocs", 0)) for app in APPS]}

    probes: list[float] = []

    def start(index: int, trace_dir: Path | None = None) -> tuple[Server, float]:
        # Probed before the server starts: once it runs, its threads share the CPU.
        probes.extend(common.probe_ms() for _ in range(PAUSE_PROBES))
        t0 = time.perf_counter()
        server = Server(tmp, env, index, trace_dir)
        try:
            warm = prefill(server, seed)
        except BaseException:
            server.stop()
            raise
        setup = time.perf_counter() - t0
        check_jobs(checker, warm, refs, "pre-fill")
        return server, setup

    if not trace:
        setups = []
        for index in range(1 if smoke else SETUPS):
            server, setup = start(index)
            setups.append(setup)
            if index < (1 if smoke else SETUPS) - 1:
                server.stop()
        try:
            jobs, wall = probed_loop(server.url, seed, seconds, smoke, probes)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        check_jobs(checker, jobs, refs, "job")
        scale = common.host_scale(probes)
        done = [j for j in jobs if j["error"] is None]
        raw = [j["latency_ms"] for j in done]
        latencies = [v * scale for v in raw]
        hits = [(v, r) for v, r, j in zip(latencies, raw, done) if j["hit"]]
        misses = [(v, r) for v, r, j in zip(latencies, raw, done) if not j["hit"]]
        setup_raw = common.median(setups)
        setup = setup_raw * scale
        rate = len(done) / wall
        out["metrics"] = {
            "setup_s": (setup, "s"),
            "ops_per_s": (rate / scale, "1/s"),
            "op_p50_ms": (common.median(latencies), "ms"),
            "op_tail_ms": (common.tail(latencies)[0], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines = [
            common.line("host_scale", scale, "x",
                        f"{common.PROBE_NOMINAL_MS:g} ms / mean of {len(probes)} probes; "
                        "times below are scaled (measured in brackets)"),
            common.line("setup_s", setup, "s", f"[{setup_raw:.4g}] median of {len(setups)} "
                        "server set-ups"),
            common.line("jobs_per_s", rate / scale, "1/s",
                        f"[{rate:.4g}] {CLIENTS} closed-loop clients, "
                        f"poll every {POLL_S * 1e3:g} ms"),
        ]
        for name, pairs in (("job", list(zip(latencies, raw))), ("hit", hits), ("miss", misses)):
            values, measured = [v for v, _ in pairs], [r for _, r in pairs]
            v_tail, v_pct, v_n = common.tail(values)
            lines += [common.line(f"{name}_p50_ms", common.median(values), "ms",
                                  f"[{common.median(measured):.4g}] n={v_n}"),
                      common.line(f"{name}_tail_ms", v_tail, "ms",
                                  f"[{common.tail(measured)[0]:.4g}] p{v_pct:.1f}, n={v_n}")]
        lines.append(common.line("peak_rss_mb", rss, "MB", "server + worker"))
        out["lines"] = lines
        out["record"] = {"setup": setups, "jobs": jobs, "probe_ms": probes}
        return out

    # Traced run: an untraced server first (the overhead baseline), then a
    # server whose every layer is wrapped.
    half = seconds / 2
    server, _ = start(0)
    try:
        untraced, _ = closed_loop(server.url, _requests(seed), half, smoke)
    finally:
        server.stop()
    check_jobs(checker, untraced, refs, "job")
    trace_dir = tmp / "trace"
    trace_dir.mkdir()
    server, _ = start(1, trace_dir)
    try:
        before = _metrics(server.url)
        _mark(server.url, layers.MARK_START)
        jobs, _ = closed_loop(server.url, _requests(seed), half, smoke)
        _mark(server.url, layers.MARK_END)
        after = _metrics(server.url)
        cache_bytes = _dir_bytes(server.cache_dir)
    finally:
        server.stop()
    check_jobs(checker, jobs, refs, "traced job")

    acc: dict = {"all": {}}
    spans = [{"name": "job", "start": j["start"], "end": j["end"], "job": j.get("id"),
              "pid": os.getpid(), "parent": None} for j in jobs]
    loop_ids = {j.get("id") for j in jobs}
    for path in sorted(trace_dir.glob("server-*.json")):
        dumped = json.loads(path.read_text())
        spans += dumped["spans"]
        start_mark = dumped["marks"].get(layers.MARK_START, {})
        end_mark = dumped["marks"].get(layers.MARK_END, {})
        layers.add_into(acc["all"], layers.diff(end_mark, start_mark))
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        for text in path.read_text().splitlines():
            job = json.loads(text)
            if job["job"] in loop_ids:
                spans += job["spans"]
                layers.add_into(acc["all"], job["totals"])
    metrics = layer_metrics(acc, max(len(jobs), 1), share_of="all")

    def mean_ms(js: list[dict]) -> float:
        return sum(j["latency_ms"] for j in js) / max(len(js), 1)

    metrics["trace_overhead_x"] = (mean_ms(jobs) / mean_ms(untraced), "x")

    def delta(name: str) -> float:
        return (after.get(name, {}).get("value", 0) - before.get(name, {}).get("value", 0))

    hits, misses = delta("core.serve.cache.hits"), delta("core.serve.cache.misses")
    metrics["serve.cache.hits"] = (hits, "count")
    metrics["serve.cache.misses"] = (misses, "count")
    metrics["serve.batches.dispatched"] = (delta("core.serve.batches.dispatched"), "count")
    metrics["serve.hit_frac"] = (hits / max(hits + misses, 1), "ratio")
    metrics["serve.cache.bytes"] = (float(cache_bytes), "bytes")
    for layer in EXPECTED_LAYERS:
        checker.check(metrics[f"{layer}.calls"][0] > 0,
                      f"layer {layer} shows no calls on serve-hitmiss")
    out["metrics"] = metrics
    out["lines"] = [common.line("trace_overhead_x", metrics["trace_overhead_x"][0], "x",
                                f"mean job time, {len(jobs)} traced vs {len(untraced)} untraced")]
    out["record"] = {"spans": spans, "totals": acc}
    return out
