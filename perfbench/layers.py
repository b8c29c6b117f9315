"""Outside-in per-layer host-time attribution for traced benchmark runs.

:func:`install` wraps the public entry points of each layer of the
program — methods on classes, and module functions at every place a
``repro`` module binds them (``from x import f`` copies the binding, so a
wrapper patched onto the defining module alone would be bypassed).  The
program's own files are not changed.

Each wrapper adds to per-thread ``(busy, wait, calls)`` totals for its
layer instead of recording a span per call: the mailbox alone sees ~17k
calls per poisson run.  *busy* comes from the thread's CPU clock
(:func:`time.thread_time_ns`) and *wait* is wall time minus busy.  The
deterministic backend runs one rank thread at a time, so the wall time of
a blocking call includes the other ranks' work; only the CPU clock
attributes work to the thread that did it.  Both are *self* times: a
nested wrapped call's time is charged to its own layer, not its caller's.

Coarse boundaries (a round, one app run, a one-deep phase, a served job)
also record spans — name, start, end, parent, and for serve the job id
shared by client, server and worker — kept in memory and written out by
:func:`dump` when the process ends.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: layer names, in report order (named after the modules they cover)
LAYERS = (
    "runtime.context",
    "runtime.scheduler",
    "runtime.mailbox",
    "comm.communicator",
    "comm.boundary",
    "comm.redistribute",
    "kernels",
    "core.meshspectral",
    "core.onedeep",
    "core.pipeline",
    "apps",
    "machines",
    "tune",
    "serve.server",
    "serve.protocol",
    "serve.cache",
    "serve.scheduler",
    "serve.pool",
    "serve.executor",
    "trace",
    "verify.digest",
)
#: the root frame of a rank thread: CPU spent outside the rank body
UNATTRIBUTED = "unattributed"

#: job ids a status lookup of which snapshots the server's totals
MARK_START = "perfbench-mark-start"
MARK_END = "perfbench-mark-end"

_tls = threading.local()
_states: list["_ThreadState"] = []
_states_lock = threading.Lock()
_installed: list[tuple[object, str, object]] = []
_spans: list[dict] = []
_span_ids = itertools.count(1)
#: the span of the app run in progress (parent of rank-thread phase spans)
current_run_span: int | None = None
#: server-side snapshots taken at MARK_START / MARK_END
_marks: dict[str, dict] = {}
#: where serve processes write their totals at exit
_dump_dir: str | None = None


class _ThreadState:
    __slots__ = ("thread", "stack", "totals", "rank")

    def __init__(self) -> None:
        self.thread = threading.current_thread()
        self.stack: list[list[int]] = []
        self.totals: dict[str, list[int]] = {}
        self.rank = False


def _state() -> _ThreadState:
    state = getattr(_tls, "state", None)
    if state is None:
        state = _tls.state = _ThreadState()
        with _states_lock:
            _states.append(state)
    return state


def _timed(fn, layer: str):
    """*fn* wrapped to add its self busy/wait time and one call to *layer*."""
    if getattr(fn, "_perfbench_layer", None) == layer:
        return fn
    thread_ns = time.thread_time_ns
    wall_ns = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        stack = state.stack
        frame = [0, 0]  # busy and wall of nested wrapped calls
        stack.append(frame)
        c0 = thread_ns()
        w0 = wall_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            w1 = wall_ns()
            c1 = thread_ns()
            stack.pop()
            busy = c1 - c0
            wall = w1 - w0
            totals = state.totals.get(layer)
            if totals is None:
                totals = state.totals[layer] = [0, 0, 0]
            self_busy = busy - frame[0]
            totals[0] += self_busy
            totals[1] += wall - frame[1] - self_busy
            totals[2] += 1
            if stack:
                parent = stack[-1]
                parent[0] += busy
                parent[1] += wall

    wrapper._perfbench_layer = layer
    return wrapper


def _as_apps(fn):
    return _timed(fn, "apps") if callable(fn) else fn


# -- spans -------------------------------------------------------------------


def new_span_id() -> int:
    return next(_span_ids)


def record_span(name: str, start: float, end: float, parent: int | None = None,
                span_id: int | None = None, **attrs) -> int:
    if span_id is None:
        span_id = next(_span_ids)
    _spans.append(
        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
         "pid": os.getpid(), "thread": threading.current_thread().name, **attrs}
    )
    return span_id


def spans() -> list[dict]:
    return list(_spans)


# -- installing wrappers -----------------------------------------------------


def _set(owner, name: str, value) -> None:
    _installed.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, value)


def _wrap_methods(cls, layer: str, names) -> None:
    for name in names:
        raw = cls.__dict__.get(name)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            _set(cls, name, classmethod(_timed(raw.__func__, layer)))
        elif isinstance(raw, staticmethod):
            _set(cls, name, staticmethod(_timed(raw.__func__, layer)))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            _set(cls, name, _timed(raw, layer))


def _wrap_functions(module, layer: str, names) -> None:
    """Wrap module functions at every binding a loaded repro module holds."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
    for name in names:
        fn = getattr(module, name)
        wrapped = _timed(fn, layer)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    _set(mod, key, wrapped)


def _public(cls) -> list[str]:
    return [n for n, v in vars(cls).items() if not n.startswith("_") and inspect.isfunction(v)]


def _rank_root(orig):
    root = _timed(orig, UNATTRIBUTED)

    @functools.wraps(orig)
    def rank_main(self, rank, body):
        _state().rank = True
        return root(self, rank, _timed(body, "apps"))

    return rank_main


def _onedeep_init(orig):
    @functools.wraps(orig)
    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        for attr in ("solve", "solve_cost", "distribute"):
            setattr(self, attr, _as_apps(getattr(self, attr)))
        for attr in ("split", "merge"):
            spec = getattr(self, attr)
            if spec is not None:
                setattr(self, attr, dataclasses.replace(spec, **{
                    f.name: _as_apps(getattr(spec, f.name)) for f in dataclasses.fields(spec)
                }))

    return init


def _pipeline_init(orig):
    @functools.wraps(orig)
    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        for stage in self.stages:
            for attr in ("fn", "init_state", "combine", "work_cost"):
                setattr(stage, attr, _as_apps(getattr(stage, attr)))
        self.emit_cost = _as_apps(self.emit_cost)
        self.collect_cost = _as_apps(self.collect_cost)

    return init


def _phase_span(orig):
    @functools.wraps(orig)
    def phase(self, comm, spec, local, label):
        start = time.perf_counter()
        try:
            return orig(self, comm, spec, local, label)
        finally:
            record_span(f"phase:{label}", start, time.perf_counter(), current_run_span,
                        rank=comm.rank)

    return phase


def _queue_wait(orig):
    """pop_batch: charge each popped job's submit-to-dispatch queue wait."""

    @functools.wraps(orig)
    def pop_batch(self):
        jobs = orig(self)
        now = time.monotonic()
        totals = _state().totals.setdefault("serve.scheduler", [0, 0, 0])
        for job in jobs:
            totals[1] += int((now - job.queued_mono) * 1e9)
        return jobs

    return pop_batch


def _marked_job_view(orig):
    @functools.wraps(orig)
    def job_view(self, job_id, kind):
        if job_id in (MARK_START, MARK_END):
            _marks[job_id] = snapshot()
        return orig(self, job_id, kind)

    return job_view


def _spanned_submit(orig):
    @functools.wraps(orig)
    def submit(self, body):
        start = time.perf_counter()
        job = orig(self, body)
        record_span("serve.submit", start, time.perf_counter(), job=job.id,
                    cache_hit=job.cache_hit)
        return job

    return submit


def _spanned_complete(orig):
    @functools.wraps(orig)
    def complete(self, job, outcome):
        start = time.perf_counter()
        try:
            return orig(self, job, outcome)
        finally:
            record_span("serve.complete", start, time.perf_counter(), job=job.id)

    return complete


def _worker_main(orig):
    """A pool worker that tags each executed job with its id and appends the
    job's layer totals and span to ``worker-<pid>.jsonl`` as it completes.
    (The server's shutdown ends its worker with a signal, so a worker has no
    point at which it could write everything at the end.)"""

    @functools.wraps(orig)
    def worker_main(worker_id, inbox, results, heartbeat):
        pending: collections.deque[str] = collections.deque()

        class _Inbox:
            def get(self):
                item = inbox.get()
                if item is not None:
                    pending.extend(job_id for job_id, _ in item[1])
                return item

        executor = importlib.import_module("repro.serve.executor")
        execute = executor.execute
        path = os.path.join(_dump_dir, f"worker-{os.getpid()}.jsonl")

        def tagged_execute(request, *args, **kwargs):
            job_id = pending.popleft() if pending else None
            before = snapshot()
            start = time.perf_counter()
            try:
                return execute(request, *args, **kwargs)
            finally:
                end = time.perf_counter()
                record = {"job": job_id, "totals": diff(snapshot(), before),
                          "spans": [{"name": "serve.execute", "start": start, "end": end,
                                     "parent": None, "pid": os.getpid(), "job": job_id}]}
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")

        executor.execute = tagged_execute
        return orig(worker_id, _Inbox(), results, heartbeat)

    return worker_main


def install(serve: bool = False, dump_dir: str | None = None) -> None:
    """Wrap every layer's entry points (idempotent per process)."""
    global _dump_dir
    if _installed:
        return
    _dump_dir = dump_dir
    mod = importlib.import_module
    fftlib, sorting = mod("repro.apps.fftlib"), mod("repro.apps.sorting.common")
    boundary, redistribute = mod("repro.comm.boundary"), mod("repro.comm.redistribute")
    communicator = mod("repro.comm.communicator")
    meshspectral, onedeep = mod("repro.core.meshspectral"), mod("repro.core.onedeep")
    pipeline, kernels = mod("repro.core.pipeline"), mod("repro.kernels.runtime")
    model, chrome = mod("repro.machines.model"), mod("repro.obs.chrome")
    context, mailbox = mod("repro.runtime.context"), mod("repro.runtime.mailbox")
    scheduler, catalog = mod("repro.runtime.scheduler"), mod("repro.tune.catalog")
    tracer, analysis = mod("repro.trace.tracer"), mod("repro.trace.analysis")
    digest = mod("repro.verify.digest")

    # Import the modules that bind layer functions by name, so the
    # call-site scan below finds their bindings.
    for name in ("fft2d", "poisson", "smog", "imagepipe", "knapfarm", "registry",
                 "sorting.mergesort"):
        mod(f"repro.apps.{name}")
    mod("repro.serve.executor")
    if serve:
        cache, executor = mod("repro.serve.cache"), mod("repro.serve.executor")
        pool, protocol = mod("repro.serve.pool"), mod("repro.serve.protocol")
        server, admission = mod("repro.serve.server"), mod("repro.serve.scheduler")

    p2p = ("send", "recv", "recv_msg", "probe", "isend", "irecv", "wait", "waitall",
           "waitany", "test", "sendrecv", "charge", "advance")
    _wrap_methods(context.RankContext, "runtime.context", p2p)
    _wrap_methods(communicator.Comm, "runtime.context", ("send", "isend"))
    _wrap_methods(communicator.Comm, "comm.communicator", ("split", "barrier", "bcast", "reduce",
                  "allreduce", "gather", "scatter", "allgather", "alltoall", "scan"))
    backend_api = ("deliver", "wait_for_match", "wait_any_post", "probe_match",
                   "post_receive", "post_ready", "take_post", "peek_post",
                   "choose_completion")
    for cls in (scheduler.Backend, scheduler.DeterministicBackend,
                scheduler.FuzzedBackend, scheduler.ThreadedBackend):
        _wrap_methods(cls, "runtime.scheduler", backend_api)
    for cls in (scheduler.DeterministicBackend, scheduler.ThreadedBackend):
        _set(cls, "_rank_main", _rank_root(cls.__dict__["_rank_main"]))
    for cls in (mailbox.Mailbox, mailbox._LinearMailbox):
        _wrap_methods(cls, "runtime.mailbox", _public(cls))
    _wrap_functions(boundary, "comm.boundary", ("exchange_ghosts", "exchange_ghosts_many",
                    "exchange_ghosts_start", "exchange_ghosts_many_start",
                    "dedup_exchange_requests"))
    _wrap_methods(boundary.GhostExchange, "comm.boundary", ("wait",))
    _wrap_functions(redistribute, "comm.redistribute",
                    ("redistribute", "gather_to_root", "scatter_from_root"))
    _wrap_methods(kernels.KernelEngine, "kernels", ("submit", "flush"))
    _wrap_methods(meshspectral.MeshContext, "core.meshspectral",
                  _public(meshspectral.MeshContext))
    _set(onedeep.OneDeepDC, "__init__", _onedeep_init(onedeep.OneDeepDC.__init__))
    _wrap_methods(onedeep.OneDeepDC, "core.onedeep", ("body", "_phase"))
    _set(onedeep.OneDeepDC, "_phase", _phase_span(onedeep.OneDeepDC.__dict__["_phase"]))
    _set(pipeline.PipelineArchetype, "__init__",
         _pipeline_init(pipeline.PipelineArchetype.__init__))
    for cls in (pipeline.PipelineArchetype, pipeline._Upstream, pipeline._Downstream,
                pipeline.StageContext):
        names = [n for n, v in vars(cls).items()
                 if inspect.isfunction(v) and not n.startswith("__")]
        _wrap_methods(cls, "core.pipeline", names)
    _wrap_functions(fftlib, "apps", ("fft",))
    _wrap_functions(sorting, "apps", ("merge_two_sorted", "merge_sorted"))
    _wrap_methods(model.MachineModel, "machines",
                  ("message_time", "send_overhead", "recv_overhead", "compute_time"))
    _wrap_functions(catalog, "tune", ("consult", "lookup", "load"))
    _wrap_methods(tracer.Tracer, "trace", _public(tracer.Tracer))
    _wrap_functions(analysis, "trace", ("summarize",))
    _wrap_functions(chrome, "trace", ("chrome_trace",))
    _wrap_functions(digest, "verify.digest", ("value_digest",))
    if not serve:
        return
    _wrap_methods(server._Handler, "serve.server", ("do_GET", "do_POST"))
    _wrap_methods(server.ServeServer, "serve.server",
                  ("submit", "job_view", "health", "apps", "_handle_record", "_complete",
                   "_dispatch_ready", "_reap_dead_workers", "_enforce_timeouts"))
    _set(server.ServeServer, "job_view", _marked_job_view(server.ServeServer.job_view))
    _set(server.ServeServer, "submit", _spanned_submit(server.ServeServer.submit))
    _set(server.ServeServer, "_complete", _spanned_complete(server.ServeServer._complete))
    _wrap_methods(protocol.JobRequest, "serve.protocol",
                  ("validated", "cache_key", "to_json", "from_json"))
    _wrap_functions(protocol, "serve.protocol", ("dumps", "loads"))
    _wrap_methods(cache.ResultCache, "serve.cache", ("lookup", "store"))
    _wrap_methods(cache.CachedResult, "serve.cache", ("outputs", "metrics", "trace"))
    _wrap_methods(admission.AdmissionQueue, "serve.scheduler", ("push", "peek", "pop_batch"))
    _set(admission.AdmissionQueue, "pop_batch",
         _queue_wait(admission.AdmissionQueue.pop_batch))
    _wrap_methods(pool.WorkerPool, "serve.pool",
                  ("dispatch", "poll", "idle_worker", "dead_workers", "mark_batch_done"))
    _wrap_functions(executor, "serve.executor", ("execute",))
    _set(pool, "_worker_main", _worker_main(pool._worker_main))


def uninstall() -> None:
    """Restore every wrapped binding (reverse order of installation)."""
    while _installed:
        owner, name, original = _installed.pop()
        setattr(owner, name, original)


# -- reading totals ----------------------------------------------------------


def snapshot(rank_only: bool = False) -> dict[str, list[int]]:
    """Summed ``layer -> [busy_ns, wait_ns, calls]`` over this process's threads."""
    out: dict[str, list[int]] = {}
    with _states_lock:
        states = list(_states)
    for state in states:
        if rank_only and not state.rank:
            continue
        for layer, (busy, wait, calls) in list(state.totals.items()):
            acc = out.setdefault(layer, [0, 0, 0])
            acc[0] += busy
            acc[1] += wait
            acc[2] += calls
    return out


def collect() -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """(all threads, rank threads only) totals since the last collect; resets
    them and forgets threads that have ended."""
    everything, ranks = snapshot(), snapshot(rank_only=True)
    with _states_lock:
        for state in _states:
            state.totals.clear()
        _states[:] = [s for s in _states if s.thread.is_alive()]
    return everything, ranks


def diff(after: dict, before: dict) -> dict:
    return {
        layer: [a - b for a, b in zip(vals, before.get(layer, (0, 0, 0)))]
        for layer, vals in after.items()
    }


def add_into(acc: dict, totals: dict) -> None:
    for layer, vals in totals.items():
        slot = acc.setdefault(layer, [0, 0, 0])
        for i in range(3):
            slot[i] += vals[i]


def dump(filename: str) -> None:
    """Write this process's totals, marks and spans."""
    if _dump_dir is None:
        return
    record = {"pid": os.getpid(), "totals": snapshot(), "marks": _marks, "spans": _spans}
    path = os.path.join(_dump_dir, filename)
    with open(path + ".tmp", "w") as fh:
        json.dump(record, fh)
    os.replace(path + ".tmp", path)
