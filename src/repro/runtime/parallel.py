"""Process-parallel execution: one OS process per rank.

Every other backend runs rank bodies as threads of the calling process,
so all pure-Python simulator overhead is serialised behind the GIL (and
the run-to-block backends are one-rank-at-a-time *by design*).  This
module runs each rank in its own OS process, which is real multi-core
execution: on a P-core host, P ranks' numpy work and simulator
bookkeeping proceed concurrently.

Correctness rests on work the earlier layers already did.  Virtual
clocks are charged canonically (schedule-independent) by the contexts,
and the shipped applications are certified race-free by the schedule
fuzzer — so *any* legal interleaving, including a free-running
multi-process one, must produce bitwise-identical per-rank digests and
final clocks to :class:`~repro.runtime.scheduler.DeterministicBackend`.
The cross-backend tests and the bench ablation assert exactly that.

Transport
---------
Each rank owns one delivery queue; a send encodes the payload and
enqueues the envelope on the destination's queue, and the receiving
worker drains its queue into its (indexed) :class:`~repro.runtime.
mailbox.Mailbox`, where the usual (source, tag, ctx) matching applies.
Large ndarray payloads do not travel through the pipe: they are staged
in :mod:`multiprocessing.shared_memory` segments — the copy-on-write
freeze contract of payload transfer maps directly onto shared *read-only*
segments (the receiver maps the segment and never writes it; neither
does anyone else, the sender staged a private copy).  Small and
non-array payloads fall back to pickle, controlled by a size threshold
(``REPRO_SHM_THRESHOLD`` bytes, default 32768).

Segment lifecycle: the sender creates, fills, and closes its mapping;
the receiver attaches and immediately *unlinks* the name (POSIX keeps
the mapping alive until unmapped), so a normally-received segment can
never outlive the run.  Both sides unregister from the stdlib resource
tracker — ownership is managed here, not by per-process trackers that
would double-unlink.  As a backstop for crashed or deadlocked runs, the
parent sweeps ``/dev/shm`` for the run's unique name prefix at teardown,
so no path leaks segments.

Failure detection
-----------------
The run-to-block schedulers detect deadlock by evaluating blocked-rank
predicates in-process; no such global view exists across processes.
Instead, workers publish heartbeat state through shared memory: a
per-rank progress counter (bumped on every send, delivery, and
completion) plus a blocked/running/done flag and the blocked wait's
description.  The parent declares deadlock only when every unfinished
rank reports *blocked* and the global progress sum has not moved for
``deadlock_timeout`` seconds — long computations never trip it, because
a computing rank reports *running*.  A worker that dies without
reporting a result (hard crash, ``os._exit``) is noticed by process
liveness and surfaced as :class:`~repro.errors.RankFailedError`, never
as a hang.

Use ``backend="parallel"`` on :func:`~repro.runtime.spmd.spmd_run` /
``mode="parallel"`` on :meth:`Archetype.run`, or set
``REPRO_BACKEND=parallel``.  The start method defaults to ``fork``
(closures and lambdas work unchanged); set ``REPRO_PARALLEL_START`` to
``forkserver`` or ``spawn`` for the stricter methods, under which the
program body and its arguments must be picklable/importable.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from queue import Empty
from typing import Any

import numpy as np

from repro.errors import DeadlockError, RankFailedError, ReproError
from repro.machines.model import MachineModel
from repro.obs.metrics import counter_handle, get_registry, scoped_registry
from repro.runtime.message import Message
from repro.runtime.scheduler import Backend, _Aborted
from repro.trace.tracer import Tracer

_DEADLOCKS = counter_handle(
    "runtime.scheduler.deadlocks", help="runs aborted as deadlocked"
)
_SHM_SENT = counter_handle(
    "runtime.parallel.shm_segments", help="payload arrays staged in shared memory"
)
_PICKLED = counter_handle(
    "runtime.parallel.pickled_payloads", help="payloads sent via the pickle fallback"
)

#: default payload-size threshold (bytes) above which an ndarray travels
#: via a shared-memory segment instead of the pickle fallback
DEFAULT_SHM_THRESHOLD = 32768
#: seconds between heartbeat wake-ups while a worker is blocked (also the
#: parent's monitoring granularity)
_TICK = 0.05
#: bytes reserved per rank for the blocked-wait description
_DESC_BYTES = 192

# worker states published through the shared state array
_RUNNING, _BLOCKED, _DONE = 0, 1, 2

_RUN_IDS = itertools.count()


def default_start_method() -> str:
    """The start method used when none is requested: ``REPRO_PARALLEL_START``
    if set, else ``fork`` where available (closures work unchanged), else
    ``spawn``."""
    import multiprocessing as mp

    env = os.environ.get("REPRO_PARALLEL_START")
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def shm_threshold() -> int:
    """The ndarray size (bytes) at which payloads switch to shared memory."""
    try:
        return int(os.environ.get("REPRO_SHM_THRESHOLD", DEFAULT_SHM_THRESHOLD))
    except ValueError:
        return DEFAULT_SHM_THRESHOLD


def _untrack(name: str) -> None:
    """Remove *name* from this process's stdlib resource tracker.

    The tracker assumes whoever registered a segment owns its cleanup and
    unlinks leftovers at process exit; here ownership is transferred from
    sender to receiver (and backstopped by the parent's sweep), so both
    sides must opt out or the tracker double-unlinks and warns.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker differences are non-fatal
        pass


@dataclass(frozen=True)
class _ShmRef:
    """Wire marker for an ndarray staged in a shared-memory segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]


class _SegmentStager:
    """Creates this worker's outgoing shared-memory segments."""

    def __init__(self, prefix: str, rank: int):
        self._prefix = prefix
        self._rank = rank
        self._seq = 0

    def stage(self, array: np.ndarray) -> _ShmRef:
        data = np.ascontiguousarray(array)
        name = f"{self._prefix}.{self._rank}.{self._seq}"
        self._seq += 1
        seg = shared_memory.SharedMemory(name=name, create=True, size=data.nbytes)
        np.frombuffer(seg.buf, dtype=data.dtype).reshape(data.shape)[...] = data
        tracked = seg._name  # the registered name (leading slash included)
        seg.close()
        _untrack(tracked)
        _SHM_SENT.inc()
        return _ShmRef(name, data.dtype.str, data.shape)


def _encode_payload(payload: Any, threshold: int, stager: _SegmentStager) -> Any:
    """Replace large ndarrays inside *payload* with :class:`_ShmRef` markers.

    Mirrors the container walk of the copy-on-write freeze: tuples, lists
    and dicts are rebuilt around the markers; anything else rides the
    pickle fallback untouched.  Object-dtype and empty arrays cannot be
    mapped raw and always fall back.
    """
    if isinstance(payload, np.ndarray):
        if payload.nbytes >= threshold and payload.nbytes > 0 and not payload.dtype.hasobject:
            return stager.stage(payload)
        return payload
    if isinstance(payload, tuple):
        return tuple(_encode_payload(item, threshold, stager) for item in payload)
    if isinstance(payload, list):
        return [_encode_payload(item, threshold, stager) for item in payload]
    if isinstance(payload, dict):
        return {k: _encode_payload(v, threshold, stager) for k, v in payload.items()}
    return payload


def _attach_segment(ref: _ShmRef, attached: list) -> np.ndarray:
    """Map a staged segment as a read-only ndarray (zero-copy).

    The name is unlinked immediately — the mapping stays valid until the
    process unmaps it, and an unlinked segment cannot leak.  The fd is
    released right away (the mapping does not need it) so long runs never
    accumulate one descriptor per received array; the
    :class:`~multiprocessing.shared_memory.SharedMemory` object itself is
    parked on *attached* to keep the mapping's lifetime simple.
    """
    seg = shared_memory.SharedMemory(name=ref.name)
    try:
        seg.unlink()
    except FileNotFoundError:
        _untrack(seg._name)
    flat = np.frombuffer(seg.buf, dtype=np.dtype(ref.dtype))
    flat.flags.writeable = False
    fd = getattr(seg, "_fd", -1)
    if fd >= 0:
        os.close(fd)
        seg._fd = -1
    attached.append(seg)
    return flat.reshape(ref.shape)


def _decode_payload(payload: Any, attached: list) -> Any:
    """Resolve :class:`_ShmRef` markers and freeze pickled arrays read-only,
    reproducing the copy-on-write contract receivers see on the in-process
    backends."""
    if isinstance(payload, _ShmRef):
        return _attach_segment(payload, attached)
    if isinstance(payload, np.ndarray):
        payload.flags.writeable = False
        return payload
    if isinstance(payload, tuple):
        return tuple(_decode_payload(item, attached) for item in payload)
    if isinstance(payload, list):
        return [_decode_payload(item, attached) for item in payload]
    if isinstance(payload, dict):
        return {k: _decode_payload(v, attached) for k, v in payload.items()}
    return payload


class _ResultChannel:
    """Multi-producer, single-consumer result pipe.

    Each worker sends exactly one terminal record; sends are serialised
    by a lock and pickled in the calling thread (unlike ``mp.Queue``'s
    feeder thread, a pickling failure surfaces synchronously where it can
    be reported).
    """

    def __init__(self, ctx):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, item) -> None:
        with self._lock:
            self._writer.send(item)

    def poll(self, timeout: float) -> bool:
        return self._reader.poll(timeout)

    def get(self):
        return self._reader.recv()


class _Wiring:
    """Everything a worker process needs, bundled for the spawn pickle."""

    def __init__(self, ctx, nprocs: int, prefix: str, threshold: int):
        #: per-rank delivery queues (unbounded: senders never block, so a
        #: full pipe can never weave a false send-side deadlock)
        self.inboxes = [ctx.Queue() for _ in range(nprocs)]
        self.results = _ResultChannel(ctx)
        self.abort = ctx.Event()
        self.states = ctx.Array("b", nprocs, lock=False)
        self.progress = ctx.Array("L", nprocs, lock=False)
        self.describes = ctx.Array("c", nprocs * _DESC_BYTES, lock=False)
        self.prefix = prefix
        self.shm_threshold = threshold

    def describe_of(self, rank: int) -> str:
        raw = bytes(self.describes[rank * _DESC_BYTES : (rank + 1) * _DESC_BYTES])
        return raw.split(b"\x00", 1)[0].decode(errors="replace")


class ParallelBackend(Backend):
    """The worker-side transport: one instance per rank, in its own process.

    Only this rank's mailbox is populated; ``deliver`` routes cross-rank
    messages through the destination's delivery queue (payloads encoded
    per the module contract), and the wait operations drain the local
    queue into the indexed mailbox before applying the ordinary matching
    predicates.  There is exactly one thread per process, so mailbox
    access needs no locking at all.
    """

    def __init__(self, rank: int, nprocs: int, wiring: _Wiring):
        super().__init__(nprocs)
        self.rank = rank
        self._wiring = wiring
        self._inbox = wiring.inboxes[rank]
        self._stager = _SegmentStager(wiring.prefix, rank)
        self._threshold = wiring.shm_threshold
        #: received segments, parked to pin their mappings for the run
        self._attached: list = []

    # -- transport ---------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        self._wiring.progress[self.rank] += 1
        if msg.dest == self.rank:
            self.mailboxes[self.rank].put(msg)
            return
        msg.payload = _encode_payload(msg.payload, self._threshold, self._stager)
        if not isinstance(msg.payload, _ShmRef):
            _PICKLED.inc()
        self._wiring.inboxes[msg.dest].put(msg)

    def _deposit(self, msg: Message) -> None:
        msg.payload = _decode_payload(msg.payload, self._attached)
        self.mailboxes[self.rank].put(msg)
        self._wiring.progress[self.rank] += 1

    def _drain_nowait(self) -> None:
        while True:
            try:
                msg = self._inbox.get_nowait()
            except Empty:
                return
            self._deposit(msg)

    def _await(self, ready, describe: str):
        """Drain deliveries until ``ready()`` yields a non-None result.

        While waiting, the worker publishes *blocked* state (and the
        wait's description) through the shared heartbeat arrays and wakes
        every :data:`_TICK` seconds to notice an abort.
        """
        self._drain_nowait()
        got = ready()
        if got is not None:
            return got
        self._set_blocked(describe)
        try:
            while True:
                try:
                    msg = self._inbox.get(timeout=_TICK)
                except Empty:
                    msg = None
                if self._wiring.abort.is_set():
                    raise _Aborted()
                if msg is not None:
                    self._deposit(msg)
                    self._drain_nowait()
                    got = ready()
                    if got is not None:
                        return got
        finally:
            self._wiring.states[self.rank] = _RUNNING

    def _set_blocked(self, describe: str) -> None:
        data = describe.encode(errors="replace")[: _DESC_BYTES - 1]
        base = self.rank * _DESC_BYTES
        self._wiring.describes[base : base + len(data)] = data
        self._wiring.describes[base + len(data)] = b"\x00"
        self._wiring.states[self.rank] = _BLOCKED

    # -- blocking operations ----------------------------------------------
    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, describe: str
    ) -> Message:
        mailbox = self.mailboxes[rank]
        return self._await(lambda: mailbox.take_match(source, tag, ctx), describe)

    def wait_any_post(self, rank: int, post_ids: list[int], describe: str) -> list[int]:
        mailbox = self.mailboxes[rank]

        def ready():
            fulfilled = [p for p in post_ids if mailbox.post_ready(p)]
            return fulfilled or None

        return self._await(ready, describe)

    def probe_match(self, rank: int, source: int, tag: int, ctx: int) -> bool:
        self._drain_nowait()
        return self.mailboxes[rank].has_match(source, tag, ctx)

    def post_ready(self, rank: int, post_id: int) -> bool:
        # Non-blocking test(): ingest pending deliveries so a completion
        # already sitting in the queue is observable.
        self._drain_nowait()
        return self.mailboxes[rank].post_ready(post_id)

    def run(self, bodies) -> None:
        raise ReproError(
            "ParallelBackend is driven by repro.runtime.parallel.run_parallel, "
            "not Backend.run"
        )


def _portable_error(exc: BaseException) -> BaseException:
    """An exception safe to ship through a pipe (pickle fallback to repr)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - anything unpicklable gets wrapped
        return ReproError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    rank: int,
    nprocs: int,
    fn,
    args: tuple,
    kwargs: dict,
    machine: MachineModel,
    trace: bool,
    wiring: _Wiring,
) -> None:
    """One rank's process: build the transport and a communicator, run the
    body, report the terminal record."""
    backend = ParallelBackend(rank, nprocs, wiring)
    tracer = Tracer(nprocs) if trace else None
    backend.tracer = tracer

    from repro.comm.communicator import Comm

    # A fresh registry for the run: with the fork start method the child
    # inherits the parent's counters, and merging those back would
    # double-count everything recorded before the run.
    with scoped_registry() as registry:
        comm = Comm(
            rank=rank, size=nprocs, backend=backend, machine=machine, tracer=tracer
        )
        backend.set_clock_source(lambda r: comm.clock if r == rank else 0.0)
        try:
            value = fn(comm, *args, **kwargs)
        except _Aborted:
            wiring.states[rank] = _DONE
            wiring.results.put(("aborted", rank, None))
            return
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            wiring.states[rank] = _DONE
            wiring.results.put(
                ("error", rank, (_portable_error(exc), traceback.format_exc()))
            )
            return
        snapshot = registry.snapshot()
    events = tracer.events[rank] if tracer is not None else None
    wiring.states[rank] = _DONE
    wiring.progress[rank] += 1
    record = ("done", rank, (value, comm.clock, events, snapshot))
    try:
        wiring.results.put(record)
    except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable return value
        wiring.results.put(("error", rank, (_portable_error(exc), traceback.format_exc())))


def _sweep_segments(prefix: str) -> list[str]:
    """Unlink any of the run's segments still present (Linux tmpfs view).

    Normally none exist: receivers unlink on attach.  Segments left by a
    crashed/deadlocked run — or by messages that were sent but never
    received — are reclaimed here, which is the no-leak guarantee the
    lifecycle tests assert on every exit path.
    """
    swept = []
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-tmpfs platforms
        return swept
    for entry in os.listdir(shm_dir):
        if entry.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_dir, entry))
                swept.append(entry)
            except FileNotFoundError:
                pass
    return swept


def _shutdown(procs, wiring: _Wiring, grace: float = 2.0) -> None:
    """Abort, give workers *grace* seconds to unwind, then terminate."""
    wiring.abort.set()
    deadline = time.monotonic() + grace
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(5.0)


def run_parallel(
    nprocs: int,
    fn,
    args=(),
    kwargs=None,
    machine: MachineModel | None = None,
    trace: bool = False,
    deadlock_timeout: float = 30.0,
    start_method: str | None = None,
    threshold: int | None = None,
):
    """Run ``fn(comm, *args, **kwargs)`` on *nprocs* rank processes.

    The process-parallel counterpart of the in-process branch of
    :func:`~repro.runtime.spmd.spmd_run` (which is the intended caller —
    use ``spmd_run(..., backend="parallel")``).  Returns the same
    :class:`~repro.runtime.spmd.RunResult`: per-rank values and final
    virtual clocks, a merged tracer when *trace* is set, and every
    worker's metrics folded into the parent's registry.
    """
    import multiprocessing as mp

    from repro.machines.catalog import IDEAL
    from repro.runtime.spmd import RunResult

    machine = IDEAL if machine is None else machine
    ctx = mp.get_context(start_method or default_start_method())
    prefix = f"repro-{os.getpid()}-{next(_RUN_IDS)}"
    wiring = _Wiring(ctx, nprocs, prefix, shm_threshold() if threshold is None else threshold)
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(rank, nprocs, fn, tuple(args), dict(kwargs or {}), machine, trace, wiring),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        for rank in range(nprocs)
    ]

    done: dict[int, tuple] = {}
    failure: tuple[int, BaseException, str] | None = None
    deadlock: dict[int, str] | None = None

    def handle(record) -> None:
        nonlocal failure
        kind, rank, payload = record
        if kind == "done":
            done[rank] = payload
        elif kind == "error" and failure is None:
            failure = (rank, payload[0], payload[1])
        # "aborted" records only appear after the parent already decided
        # to unwind; nothing to do with them.

    try:
        for proc in procs:
            proc.start()
        stall_progress: int | None = None
        stall_since = 0.0
        while len(done) < nprocs and failure is None:
            if wiring.results.poll(_TICK):
                handle(wiring.results.get())
                stall_progress = None
                continue
            # Crash detection: a worker gone without a terminal record.
            for rank, proc in enumerate(procs):
                if rank in done or proc.is_alive():
                    continue
                while wiring.results.poll(0.2):  # drain anything it managed to send
                    handle(wiring.results.get())
                if rank not in done and failure is None:
                    failure = (
                        rank,
                        ReproError(
                            f"rank {rank} process died without reporting "
                            f"(exit code {proc.exitcode})"
                        ),
                        "",
                    )
            if failure is not None:
                break
            # Heartbeat deadlock detection: every unfinished rank blocked
            # and the global progress sum frozen for deadlock_timeout.
            pending = [r for r in range(nprocs) if r not in done]
            if pending and all(wiring.states[r] == _BLOCKED for r in pending):
                snapshot = sum(wiring.progress)
                now = time.monotonic()
                if stall_progress != snapshot:
                    stall_progress, stall_since = snapshot, now
                elif now - stall_since >= deadlock_timeout:
                    deadlock = {r: wiring.describe_of(r) for r in pending}
                    break
            else:
                stall_progress = None
        if failure is not None or deadlock is not None:
            _shutdown(procs, wiring)
            if deadlock is not None:
                detail = "; ".join(f"rank {r}: {d}" for r, d in deadlock.items())
                _DEADLOCKS.inc()
                raise DeadlockError(
                    f"no rank can make progress ({detail})", waiting=deadlock
                )
            rank, original, remote_tb = failure
            if isinstance(original, DeadlockError):
                raise original
            error = RankFailedError(rank, original)
            error.remote_traceback = remote_tb
            raise error from original
        for proc in procs:
            proc.join(10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(5.0)
    finally:
        for queue in wiring.inboxes:
            try:
                queue.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        _sweep_segments(prefix)

    values: list[Any] = [None] * nprocs
    times = [0.0] * nprocs
    tracer = Tracer(nprocs) if trace else None
    registry = get_registry()
    for rank, (value, clock, events, snapshot) in done.items():
        values[rank] = value
        times[rank] = clock
        if tracer is not None and events is not None:
            tracer.adopt(rank, events)
        registry.merge_snapshot(snapshot)
    return RunResult(
        values=values,
        times=times,
        machine=machine,
        tracer=tracer,
        schedule=None,
        backend="parallel",
    )
