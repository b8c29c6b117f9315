"""Per-rank execution context: point-to-point messaging and the virtual clock.

A :class:`RankContext` is what each rank's program body receives.  It knows
the rank/size, the machine model, and maintains the rank's virtual clock:

- ``charge(flops)`` advances the clock by the machine's compute time;
- ``send`` advances the sender's clock by the Hockney message cost
  ``alpha + beta * nbytes`` and stamps the message with its arrival time;
- ``recv`` advances the receiver's clock to at least the arrival time
  (waiting in virtual time exactly when the message was not yet there).

Clocks are pure functions of the communication pattern and the charged
work, so deterministic programs report identical virtual times regardless
of scheduling backend or host machine speed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.errors import CommError
from repro.machines.model import MachineModel
from repro.obs.metrics import TIME_BUCKETS, counter_handle, histogram_handle
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message
from repro.runtime.request import Request
from repro.runtime.scheduler import Backend
from repro.trace.tracer import Tracer
from repro.util.nbytes import _OVERHEAD_BYTES, _SCALAR_BYTES, _nbytes

_REQ_POSTED = counter_handle(
    "comm.requests.posted", help="nonblocking requests posted"
)
_REQ_COMPLETED = counter_handle(
    "comm.requests.completed", help="nonblocking requests completed"
)
_REQ_WAIT = histogram_handle(
    "comm.requests.wait_seconds",
    buckets=TIME_BUCKETS,
    help="virtual time spent blocked completing a request",
)


def _array_frozen(array: np.ndarray) -> bool:
    """True when *array* (and everything it views) is read-only.

    A read-only view over a writeable base is *not* frozen: the owner of
    the base could still mutate the shared memory, so it must be copied
    like any writeable buffer.
    """
    base: Any = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or isinstance(base, bytes)


def _freeze_payload(payload: Any) -> Any:
    """Produce an immutable equivalent of *payload*, sharing what it can.

    Send-by-value as copy-on-write: ndarrays are copied **once** and
    marked read-only at first injection; a payload that is already
    frozen (every forwarded hop of a ``bcast``, the ring-passed slabs of
    an ``allgather``) is shared zero-copy, because neither sender nor
    receiver can mutate it.  Mutable containers are rebuilt (cheap —
    pointers only) so a sender appending to a sent list cannot reach the
    receiver; their array leaves are shared frozen.
    """
    if payload is None or isinstance(
        payload, (bool, int, float, complex, str, bytes, frozenset, np.generic)
    ):
        return payload
    if isinstance(payload, np.ndarray):
        if _array_frozen(payload):
            return payload
        frozen = payload.copy()
        frozen.flags.writeable = False
        return frozen
    if isinstance(payload, tuple):
        return tuple(_freeze_payload(item) for item in payload)
    if isinstance(payload, list):
        return [_freeze_payload(item) for item in payload]
    if isinstance(payload, dict):
        return {k: _freeze_payload(v) for k, v in payload.items()}
    return copy.deepcopy(payload)


def _freeze_measure(payload: Any) -> tuple[Any, int]:
    """Freeze *payload* and measure its wire size in one traversal.

    Returns ``(frozen, nbytes)`` where ``frozen`` is exactly
    :func:`_freeze_payload`'s result and ``nbytes`` exactly
    ``repro.util.nbytes._nbytes``'s (the envelope overhead is added by
    the caller).  Fusing the two walks matters for nested payloads (a
    redistribution parcel is a list of (rect, block) tuples): the
    structure is visited once instead of twice.  Types outside the hot
    set delegate to the reference implementations.
    """
    # Exact-type dispatch first: the hot payloads are plain
    # tuples/lists/ints/floats/ndarrays (a parcel is mostly small-int
    # rectangle tuples), and ``type() is`` beats isinstance chains.
    # Subclasses fall through to the isinstance chain below, which
    # computes the identical result.
    t = type(payload)
    if t is tuple or t is list:
        items = []
        total = 0
        for item in payload:
            ti = type(item)
            if ti is int or ti is float:
                items.append(item)
                total += _SCALAR_BYTES + 2
            else:
                frozen, nbytes = _freeze_measure(item)
                items.append(frozen)
                total += nbytes + 2
        return (tuple(items) if t is tuple else items), total
    if t is np.ndarray:
        nbytes = int(payload.nbytes)
        if _array_frozen(payload):
            return payload, nbytes
        frozen = payload.copy()
        frozen.flags.writeable = False
        return frozen, nbytes
    if payload is None:
        return payload, 0
    if isinstance(payload, np.ndarray):
        nbytes = int(payload.nbytes)
        if _array_frozen(payload):
            return payload, nbytes
        frozen = payload.copy()
        frozen.flags.writeable = False
        return frozen, nbytes
    if isinstance(payload, (bool, int, float, complex)):
        return payload, _SCALAR_BYTES
    if isinstance(payload, (tuple, list)):
        items = []
        total = 0
        for item in payload:
            frozen, nbytes = _freeze_measure(item)
            items.append(frozen)
            total += nbytes + 2
        return (tuple(items), total) if isinstance(payload, tuple) else (items, total)
    if isinstance(payload, dict):
        out = {}
        total = 0
        for key, value in payload.items():
            frozen, nbytes = _freeze_measure(value)
            out[key] = frozen
            total += _nbytes(key) + nbytes + 2
        return out, total
    return _freeze_payload(payload), _nbytes(payload)


@dataclass
class _Endpoint:
    """Per-rank state shared by every communicator view of the rank."""

    clock: float = 0.0
    send_seq: int = 0
    next_ctx: int = field(default=1)
    next_req: int = 0


class RankContext:
    """One rank's view of the virtual machine (possibly a group view)."""

    #: per-(machine, size) constants for the fused cost arithmetic; instances
    #: populate their own cache on first use (group views built by
    #: ``split`` bypass ``__init__`` and inherit this class default)
    _cost_cache: tuple | None = None

    def __init__(
        self,
        rank: int,
        size: int,
        backend: Backend,
        machine: MachineModel,
        tracer: Tracer | None = None,
    ):
        #: this rank's id within this communicator, in ``[0, size)``
        self.rank = rank
        #: number of ranks in this communicator
        self.size = size
        self.machine = machine
        self._backend = backend
        self._tracer = tracer
        # Endpoint state shared by every communicator view of this rank
        # (sub-communicators created by split() alias the same node, so
        # virtual time and send ordering are per-rank, not per-group).
        self._endpoint = _Endpoint()
        #: communication context id; messages only match within a context
        self._ctx = 0
        #: member global ranks, or None for the world communicator
        self._group: list[int] | None = None

    # -- group plumbing -------------------------------------------------------
    @property
    def clock(self) -> float:
        """Virtual time on this rank, in seconds (shared across groups)."""
        return self._endpoint.clock

    @clock.setter
    def clock(self, value: float) -> None:
        self._endpoint.clock = value

    @property
    def global_rank(self) -> int:
        """This rank's id in the world communicator."""
        return self.rank if self._group is None else self._group[self.rank]

    def _to_global(self, rank: int) -> int:
        return rank if self._group is None else self._group[rank]

    def _to_local(self, global_rank: int) -> int:
        return global_rank if self._group is None else self._group.index(global_rank)

    # -- queries -----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext rank={self.rank}/{self.size} t={self.clock:.6g}s>"

    @property
    def is_root(self) -> bool:
        """True on rank 0 (the conventional master for degenerate phases)."""
        return self.rank == 0

    def check_peer(self, peer: int) -> None:
        """Validate a peer rank id."""
        if not 0 <= peer < self.size:
            raise CommError(
                f"rank {peer} out of range for a {self.size}-rank computation"
            )

    def _validate_send_tag(self, tag: int) -> None:
        """Reject an invalid send tag.  Subclasses that restrict the tag
        space (the communicator's user-tag window) override this so the
        fused ``sendrecv`` raises exactly what ``send``/``isend`` would."""
        if tag < 0:
            raise CommError(f"tags must be >= 0 (got {tag}); negatives are wildcards")

    def _machine_costs(self) -> tuple:
        """Constants of the machine's per-message cost formulas for this
        (machine, size) pair, cached on the instance.

        ``isend``, ``waitall`` and ``sendrecv`` inline
        :meth:`MachineModel.message_time` / ``send_overhead`` /
        ``recv_overhead`` to skip three method calls per exchange.  Each
        product below groups terms exactly as the model's own expressions
        associate them, so the inlined arithmetic is bitwise identical to
        calling the model.
        """
        m = self.machine
        congestion = 1.0 + m.congestion_per_node * max(self.size - 2, 0)
        cache = (
            m,
            self.size,
            congestion,
            m.alpha,
            m.beta,
            m.SEND_ALPHA_FRACTION * m.alpha,
            m.SEND_BETA_FRACTION * m.beta,
            m.RECV_ALPHA_FRACTION * m.alpha,
            m.RECV_BETA_FRACTION * m.beta,
        )
        self._cost_cache = cache
        return cache

    # -- compute accounting --------------------------------------------------
    def charge(
        self,
        flops: float,
        label: str = "",
        working_set_bytes: float | None = None,
    ) -> None:
        """Account *flops* of useful work to this rank's virtual clock.

        Applications call this with analytic work terms (e.g. ``n * log2(n)``
        comparisons for a sort); the machine model converts work to time,
        applying a paging penalty when ``working_set_bytes`` exceeds node
        memory.
        """
        start = self.clock
        self.clock += self.machine.compute_time(flops, working_set_bytes)
        if self._tracer is not None:
            self._tracer.compute(self.rank, flops, label, start, self.clock)

    def advance(self, seconds: float) -> None:
        """Advance the virtual clock by a raw time amount (rarely needed)."""
        if seconds < 0:
            raise CommError(f"cannot advance clock by negative time {seconds}")
        self.clock += seconds

    # -- point-to-point ------------------------------------------------------
    def send(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ) -> None:
        """Send *payload* to rank *dest* with the given *tag*.

        Buffered semantics: the call deposits the message and returns; the
        sender's clock pays the full transfer cost (store-and-forward
        model) and the message becomes visible to the receiver at the
        sender's post-send clock.

        The payload is detached from the sender at send time.  Ranks
        share one address space here, but the modelled machine has
        distributed memory: a sender mutating its buffer after the send
        must never affect the receiver (nor may a receiver's mutation
        reach back).  NumPy views are especially hazardous without this —
        a contiguous slab of a local array "sent" by reference would
        deliver whatever the array holds when the receiver is finally
        scheduled.  Detachment is copy-on-write: arrays are copied once
        and frozen read-only, and already-frozen payloads (collective
        forwards) are shared zero-copy.

        ``nbytes`` overrides the payload-size traversal when the caller
        already knows the size — collectives forwarding a received
        message reuse its envelope's ``nbytes`` instead of re-measuring
        the same buffer at every tree hop.  It must equal
        ``nbytes_of(payload)``; virtual costs depend on it.
        """
        self.check_peer(dest)
        if tag < 0:
            raise CommError(f"tags must be >= 0 (got {tag}); negatives are wildcards")
        if nbytes is None:
            payload, nbytes = _freeze_measure(payload)
            nbytes += _OVERHEAD_BYTES
        else:
            payload = _freeze_payload(payload)
        start = self.clock
        self.clock += self.machine.message_time(nbytes, nodes=self.size)
        self._endpoint.send_seq += 1
        msg = Message(
            source=self.global_rank,
            dest=self._to_global(dest),
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            arrival=self.clock,
            seq=self._endpoint.send_seq,
            ctx=self._ctx,
        )
        self._backend.deliver(msg)
        if self._tracer is not None:
            self._tracer.comm(
                self.global_rank, "send", msg.dest, tag, nbytes, start, self.clock
            )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive and return the payload of a matching message (blocking)."""
        return self.recv_msg(source, tag).payload

    def recv_msg(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Receive a matching message, returning the full envelope.

        The returned envelope's ``source`` is expressed in this
        communicator's (local) rank numbering.
        """
        if source != ANY_SOURCE:
            self.check_peer(source)
        start = self.clock
        describe = (
            f"recv(source={'ANY' if source == ANY_SOURCE else source}, "
            f"tag={'ANY' if tag == ANY_TAG else tag}, ctx={self._ctx})"
        )
        global_source = source if source == ANY_SOURCE else self._to_global(source)
        msg = self._backend.wait_for_match(
            self.global_rank, global_source, tag, self._ctx, describe
        )
        self.clock = max(self.clock, msg.arrival)
        self.clock += self.machine.recv_overhead(msg.nbytes, nodes=self.size)
        if self._tracer is not None:
            self._tracer.comm(
                self.global_rank,
                "recv",
                msg.source,
                msg.tag,
                msg.nbytes,
                start,
                self.clock,
            )
        if self._group is not None:
            msg = replace(msg, source=self._to_local(msg.source))
        return msg

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is already waiting (non-blocking)."""
        global_source = source if source == ANY_SOURCE else self._to_global(source)
        return self._backend.probe_match(self.global_rank, global_source, tag, self._ctx)

    # -- nonblocking point-to-point -----------------------------------------
    #
    # Cost model: ``isend`` charges only the sender-side post overhead and
    # records the wire-completion time on the request; ``irecv`` is free to
    # post.  Completion (``wait``/``waitall``) advances the clock to at
    # least the transfer's finish time, so compute performed between post
    # and wait is absorbed into ``max(compute, transfer)`` — the
    # compute/communication overlap the archetypes exploit.  An isend (or
    # irecv) followed immediately by its wait costs exactly the blocking
    # call, by construction.
    #
    # ``waitall`` observes completions in whatever order the backend
    # reports (the fuzzer perturbs this) but *charges* them in a canonical
    # order, so virtual clocks stay schedule-independent.  ``waitany`` is
    # inherently order-sensitive, like a wildcard receive, and is charged
    # at the observed completion.

    def _new_req_id(self) -> int:
        rid = self._endpoint.next_req
        self._endpoint.next_req += 1
        return rid

    def isend(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ) -> Request:
        """Post a nonblocking send; complete it with ``wait``/``waitall``.

        The payload is detached at post time (send-by-value, as for
        :meth:`send`, copy-on-write) and delivered
        with the same arrival stamp a blocking send would produce; only
        the post overhead is charged here.  ``nbytes`` as for
        :meth:`send`.
        """
        self.check_peer(dest)
        if tag < 0:
            raise CommError(f"tags must be >= 0 (got {tag}); negatives are wildcards")
        if nbytes is None:
            payload, nbytes = _freeze_measure(payload)
            nbytes += _OVERHEAD_BYTES
        else:
            payload = _freeze_payload(payload)
        start = self.clock
        costs = self._cost_cache
        if costs is None or costs[0] is not self.machine or costs[1] != self.size:
            costs = self._machine_costs()
        arrival = start + (costs[3] + costs[4] * nbytes) * costs[2]
        self.clock = start + (costs[5] + costs[6] * nbytes) * costs[2]
        self._endpoint.send_seq += 1
        msg = Message(
            source=self.global_rank,
            dest=self._to_global(dest),
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            arrival=arrival,
            seq=self._endpoint.send_seq,
            ctx=self._ctx,
        )
        self._backend.deliver(msg)
        req = Request(
            "send",
            self,
            self._new_req_id(),
            dest,
            tag,
            nbytes,
            posted_at=start,
            complete_at=arrival,
        )
        _REQ_POSTED.inc()
        if self._tracer is not None:
            self._tracer.comm(
                self.global_rank,
                "send",
                msg.dest,
                tag,
                nbytes,
                start,
                self.clock,
                arrival=arrival,
            )
            self._tracer.request(
                self.global_rank, self.clock, "isend", "post", req.req_id,
                msg.dest, tag, nbytes,
            )
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a nonblocking receive pattern; costs nothing until waited.

        Posting pins the match: the pattern binds to the earliest pending
        match now (or the next matching delivery), and a bound message can
        no longer be stolen by other receives — MPI posted-receive
        semantics.
        """
        if source != ANY_SOURCE:
            self.check_peer(source)
        global_source = source if source == ANY_SOURCE else self._to_global(source)
        post_id = self._backend.post_receive(
            self.global_rank, global_source, tag, self._ctx
        )
        req = Request(
            "recv",
            self,
            self._new_req_id(),
            source,
            tag,
            0,
            posted_at=self.clock,
            post_id=post_id,
        )
        _REQ_POSTED.inc()
        if self._tracer is not None:
            self._tracer.request(
                self.global_rank, self.clock, "irecv", "post", req.req_id,
                global_source, tag, 0,
            )
        return req

    def _check_request(self, request: Request) -> None:
        if request.owner._endpoint is not self._endpoint:
            raise CommError(
                f"request #{request.req_id} belongs to rank "
                f"{request.owner.global_rank}, not rank {self.global_rank}"
            )

    def _complete_send(self, request: Request) -> None:
        """Charge a send completion: wait out the wire if it hasn't drained."""
        owner = request.owner
        pre = owner.clock
        owner.clock = max(owner.clock, request.complete_at)
        request.done = True
        _REQ_COMPLETED.inc()
        _REQ_WAIT.observe(max(0.0, request.complete_at - pre))
        if owner._tracer is not None:
            owner._tracer.request(
                owner.global_rank, owner.clock, "isend", "complete",
                request.req_id, owner._to_global(request.peer), request.tag,
                request.nbytes,
            )

    def _complete_recv(self, request: Request, msg: Message) -> None:
        """Charge a receive completion and store the matched envelope."""
        owner = request.owner
        pre = owner.clock
        owner.clock = max(owner.clock, msg.arrival)
        owner.clock += owner.machine.recv_overhead(msg.nbytes, nodes=owner.size)
        request.nbytes = msg.nbytes
        _REQ_COMPLETED.inc()
        _REQ_WAIT.observe(max(0.0, msg.arrival - pre))
        if owner._tracer is not None:
            owner._tracer.comm(
                owner.global_rank,
                "recv",
                msg.source,
                msg.tag,
                msg.nbytes,
                pre,
                owner.clock,
                arrival=msg.arrival,
            )
            owner._tracer.request(
                owner.global_rank, owner.clock, "irecv", "complete",
                request.req_id, msg.source, msg.tag, msg.nbytes,
            )
        if owner._group is not None:
            msg = replace(msg, source=owner._to_local(msg.source))
        request.message = msg
        request.done = True

    def wait(self, request: Request) -> Any:
        """Complete one request; returns the payload for receives."""
        self._check_request(request)
        if request.done:
            return request.payload if request.kind == "recv" else None
        if request.kind == "send":
            self._complete_send(request)
            return None
        rank = self.global_rank
        if not self._backend.post_ready(rank, request.post_id):
            describe = (
                f"wait(recv #{request.req_id}, "
                f"source={'ANY' if request.peer == ANY_SOURCE else request.peer}, "
                f"tag={'ANY' if request.tag == ANY_TAG else request.tag}, "
                f"ctx={self._ctx})"
            )
            self._backend.wait_any_post(rank, [request.post_id], describe)
        msg = self._backend.take_post(rank, request.post_id)
        self._complete_recv(request, msg)
        return request.payload

    def waitall(self, requests: list[Request]) -> list[Any]:
        """Complete every request; returns payloads (None at send slots).

        Completions are *observed* in backend order — the schedule fuzzer
        perturbs which fulfilled receive is drained first — but *charged*
        canonically (sends in list order, then receives sorted by arrival),
        so the virtual clock is independent of the observation order.
        The per-request bookkeeping (completion helpers) is flattened
        into locals; the charges are exactly :meth:`_complete_send` and
        :meth:`_complete_recv`'s.

        ``choose_completion`` is elided when exactly one receive is
        fulfillable: with a single candidate every backend returns
        position 0 without consuming randomness or tracing, so the elision
        is unobservable.
        """
        ep = self._endpoint
        backend = self._backend
        rank = self.global_rank
        pending: dict[int, Request] = {}
        for r in requests:
            if r.owner._endpoint is not ep:
                self._check_request(r)
            if r.kind == "recv" and not r.done:
                pending[r.post_id] = r
        fulfilled: list[tuple[Request, Message]] = []
        if pending:
            describe = f"waitall({len(requests)} requests, ctx={self._ctx})"
            while pending:
                ready = backend.wait_any_post(rank, list(pending), describe)
                if len(ready) == 1:
                    post_id = ready[0]
                else:
                    candidates = [
                        (m.source, m.tag)
                        for m in (backend.peek_post(rank, pid) for pid in ready)
                    ]
                    post_id = ready[backend.choose_completion(rank, candidates)]
                fulfilled.append((pending.pop(post_id), backend.take_post(rank, post_id)))
        completed = 0
        observe_wait = _REQ_WAIT.observe
        for r in requests:
            if r.kind == "send" and not r.done:
                owner = r.owner
                oep = owner._endpoint
                pre = oep.clock
                finish = r.complete_at
                if finish > pre:
                    oep.clock = finish
                r.done = True
                completed += 1
                observe_wait(finish - pre if finish > pre else 0.0)
                if owner._tracer is not None:
                    owner._tracer.request(
                        owner.global_rank, oep.clock, "isend", "complete",
                        r.req_id, owner._to_global(r.peer), r.tag, r.nbytes,
                    )
        if len(fulfilled) > 1:
            fulfilled.sort(
                key=lambda pair: (pair[1].arrival, pair[1].source, pair[1].seq)
            )
        for r, msg in fulfilled:
            owner = r.owner
            oep = owner._endpoint
            pre = oep.clock
            arrival = msg.arrival
            costs = owner._cost_cache
            if costs is None or costs[0] is not owner.machine or costs[1] != owner.size:
                costs = owner._machine_costs()
            oep.clock = (arrival if arrival > pre else pre) + (
                costs[7] + costs[8] * msg.nbytes
            ) * costs[2]
            r.nbytes = msg.nbytes
            completed += 1
            observe_wait(arrival - pre if arrival > pre else 0.0)
            if owner._tracer is not None:
                owner._tracer.comm(
                    owner.global_rank, "recv", msg.source, msg.tag, msg.nbytes,
                    pre, oep.clock, arrival=arrival,
                )
                owner._tracer.request(
                    owner.global_rank, oep.clock, "irecv", "complete",
                    r.req_id, msg.source, msg.tag, msg.nbytes,
                )
            if owner._group is not None:
                msg = replace(msg, source=owner._to_local(msg.source))
            r.message = msg
            r.done = True
        if completed:
            _REQ_COMPLETED.inc(completed)
        return [r.payload if r.kind == "recv" else None for r in requests]

    def waitany(self, requests: list[Request]) -> tuple[int, Any]:
        """Complete exactly one incomplete request; returns (index, payload).

        Which request completes first is schedule-dependent (the fuzzer
        perturbs it), so — like a wildcard receive — the charge is applied
        at the observed completion rather than canonically.
        """
        for request in requests:
            self._check_request(request)
        incomplete = [(i, r) for i, r in enumerate(requests) if not r.done]
        if not incomplete:
            raise CommError("waitany requires at least one incomplete request")
        rank = self.global_rank
        ready = [
            (i, r)
            for i, r in incomplete
            if r.kind == "send" or self._backend.post_ready(rank, r.post_id)
        ]
        if not ready:
            describe = f"waitany({len(incomplete)} requests, ctx={self._ctx})"
            got = set(
                self._backend.wait_any_post(
                    rank, [r.post_id for _, r in incomplete], describe
                )
            )
            ready = [(i, r) for i, r in incomplete if r.post_id in got]
        candidates = []
        for _, r in ready:
            if r.kind == "send":
                candidates.append((self._to_global(r.peer), r.tag))
            else:
                m = self._backend.peek_post(rank, r.post_id)
                candidates.append((m.source, m.tag))
        pos = self._backend.choose_completion(rank, candidates)
        index, request = ready[pos]
        if request.kind == "send":
            self._complete_send(request)
            return index, None
        self._complete_recv(request, self._backend.take_post(rank, request.post_id))
        return index, request.payload

    def test(self, request: Request) -> bool:
        """True when *request* can complete without blocking the schedule.

        A true result means ``wait`` would not suspend the rank; it may
        still advance the virtual clock (the transfer finishing later in
        virtual time than "now" models post/wire pipelining).
        """
        self._check_request(request)
        if request.done:
            return True
        if request.kind == "send":
            return self.clock >= request.complete_at
        return self._backend.post_ready(self.global_rank, request.post_id)

    # -- exchange helper -------------------------------------------------------
    def sendrecv(
        self,
        dest: int | None,
        payload: Any,
        source: int | None,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Send to *dest* and receive from *source* as one deadlock-free,
        overlapped exchange; returns the received payload.

        Either peer may be ``None`` to skip that direction (the boundary
        of a non-periodic shifted exchange), in which case a skipped
        receive returns ``None``.

        ``irecv``/``isend``/``waitall`` fused into one frame, with no
        :class:`Request` objects.  Everything observable is what those
        three calls produce: validation order, payload detachment, clock
        charges (send completion first, then the receive), request-id
        allocation, metric totals, trace events, and the exact backend
        call sequence (post, deliver, one ``wait_any_post``).
        ``choose_completion`` is skipped as in :meth:`waitall`.
        """
        recv_tag = send_tag if recv_tag is None else recv_tag
        ep = self._endpoint
        backend = self._backend
        machine = self.machine
        rank = self.global_rank
        tracer = self._tracer
        costs = self._cost_cache
        if costs is None or costs[0] is not machine or costs[1] != self.size:
            costs = self._machine_costs()
        _, _, congestion, alpha, beta, send_a, send_b, recv_a, recv_b = costs
        nreq = 0
        post_id = None
        if source is not None:
            if source != ANY_SOURCE:
                self.check_peer(source)
            global_source = source if source == ANY_SOURCE else self._to_global(source)
            post_id = backend.post_receive(rank, global_source, recv_tag, self._ctx)
            recv_req_id = ep.next_req
            ep.next_req += 1
            nreq += 1
            if tracer is not None:
                tracer.request(
                    rank, ep.clock, "irecv", "post", recv_req_id,
                    global_source, recv_tag, 0,
                )
        send_arrival = None
        if dest is not None:
            self.check_peer(dest)
            self._validate_send_tag(send_tag)
            payload, nbytes = _freeze_measure(payload)
            nbytes += _OVERHEAD_BYTES
            start = ep.clock
            send_arrival = start + (alpha + beta * nbytes) * congestion
            ep.clock = start + (send_a + send_b * nbytes) * congestion
            ep.send_seq += 1
            global_dest = self._to_global(dest)
            backend.deliver(
                Message(
                    source=rank,
                    dest=global_dest,
                    tag=send_tag,
                    payload=payload,
                    nbytes=nbytes,
                    arrival=send_arrival,
                    seq=ep.send_seq,
                    ctx=self._ctx,
                )
            )
            send_req_id = ep.next_req
            ep.next_req += 1
            nreq += 1
            if tracer is not None:
                tracer.comm(
                    rank, "send", global_dest, send_tag, nbytes,
                    start, ep.clock, arrival=send_arrival,
                )
                tracer.request(
                    rank, ep.clock, "isend", "post", send_req_id,
                    global_dest, send_tag, nbytes,
                )
        _REQ_POSTED.inc(nreq)
        got = None
        if post_id is not None:
            ready = backend.wait_any_post(
                rank, [post_id], f"waitall({nreq} requests, ctx={self._ctx})"
            )
            got = backend.take_post(rank, ready[0])
        completed = 0
        if send_arrival is not None:
            pre = ep.clock
            if send_arrival > pre:
                ep.clock = send_arrival
            completed += 1
            _REQ_WAIT.observe(send_arrival - pre if send_arrival > pre else 0.0)
            if tracer is not None:
                tracer.request(
                    rank, ep.clock, "isend", "complete", send_req_id,
                    global_dest, send_tag, nbytes,
                )
        if got is not None:
            pre = ep.clock
            arrival = got.arrival
            ep.clock = (arrival if arrival > pre else pre) + (
                recv_a + recv_b * got.nbytes
            ) * congestion
            completed += 1
            _REQ_WAIT.observe(arrival - pre if arrival > pre else 0.0)
            if tracer is not None:
                tracer.comm(
                    rank, "recv", got.source, got.tag, got.nbytes,
                    pre, ep.clock, arrival=arrival,
                )
                tracer.request(
                    rank, ep.clock, "irecv", "complete", recv_req_id,
                    got.source, got.tag, got.nbytes,
                )
        _REQ_COMPLETED.inc(completed)
        return None if got is None else got.payload
