"""Backends: deterministic, fuzzed, and free-running thread scheduling.

All backends expose the same two operations to the communication layer:

- ``deliver(msg)`` — place a message in the destination rank's mailbox and
  wake anyone waiting for it;
- ``wait_for_match(rank, source, tag, describe)`` — block the calling rank
  until a matching message is available, then remove and return it.

The deterministic backend runs exactly one rank at a time and always picks
the runnable rank furthest behind in virtual time (ties by rank id), so
executions are reproducible and a global block is detected immediately and
reported as a :class:`~repro.errors.DeadlockError` naming what each rank
was waiting for.

The fuzzed backend (:class:`FuzzedBackend`) keeps the run-to-block
machinery but drives every scheduling decision from a seeded PRNG, so each
seed is a distinct — yet fully reproducible — legal interleaving.  It can
also perturb which message a *wildcard* receive matches and inject faults
(message delay/reordering, rank crashes) from a :class:`FaultPlan`.  The
verification layer (:mod:`repro.verify`) builds on it.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from repro.errors import DeadlockError, InjectedFaultError, RankFailedError
from repro.obs.metrics import counter_handle
from repro.runtime.mailbox import Mailbox
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

_STEPS = counter_handle(
    "runtime.scheduler.steps", help="run-to-block scheduling decisions"
)
_BLOCKS = counter_handle(
    "runtime.scheduler.blocks", help="ranks suspended awaiting a message"
)
_DEADLOCKS = counter_handle(
    "runtime.scheduler.deadlocks", help="runs aborted as deadlocked"
)


class _Aborted(BaseException):
    """Internal: unwind a rank thread after another rank failed.

    Derives from BaseException so application-level ``except Exception``
    handlers cannot swallow the unwind.
    """


class _Status(Enum):
    READY = "ready"  # thread created, body not yet started
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class FaultPlan:
    """Faults for a :class:`FuzzedBackend` to inject, seeded by its PRNG.

    Attributes
    ----------
    delay_prob:
        Probability that a delivered message is held back for a random
        number of scheduler steps before it reaches the destination
        mailbox.  Delays are per-(source, dest) FIFO, so MPI's
        non-overtaking guarantee is preserved: a delayed message also
        delays every later message on the same channel.  Cross-channel
        delivery *is* reordered, which is exactly the legal nondeterminism
        wildcard receives are exposed to.
    max_delay_steps:
        Upper bound (inclusive lower bound is 1) on the number of
        scheduler steps a delayed message is held.
    crash_rank:
        Rank to crash, or ``None`` for no crash.
    crash_at_step:
        Scheduler step count at (or after) which the crash fires.  The
        rank raises :class:`~repro.errors.InjectedFaultError` at its next
        communication point, which surfaces as a
        :class:`~repro.errors.RankFailedError` naming the rank — never as
        a hang.
    """

    delay_prob: float = 0.0
    max_delay_steps: int = 4
    crash_rank: int | None = None
    crash_at_step: int = 0


class Backend:
    """Interface shared by the scheduling backends."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.mailboxes = [Mailbox() for _ in range(nprocs)]
        self._clock_of: Callable[[int], float] = lambda rank: 0.0
        #: optional tracer installed by the runner; backends that make
        #: scheduling-relevant matching decisions (the fuzzed backend's
        #: wildcard perturbation) record them here when present
        self.tracer = None

    def set_clock_source(self, clock_of: Callable[[int], float]) -> None:
        """Install the per-rank virtual-clock accessor.

        Contract: only the run-to-block backends consult this accessor.
        :class:`DeterministicBackend` reads it on every scheduling decision
        to run ranks in virtual-time order, and :class:`FuzzedBackend`
        reads it to timestamp its schedule log and match events.
        :class:`ThreadedBackend` **ignores it entirely** — free-running OS
        threads interleave in wall-clock order, so virtual-time ordering
        applies only to deterministic/fuzzed executions.  (Virtual clocks
        themselves are still maintained by the contexts and remain correct
        on every backend; only *scheduling* order is affected.)
        """
        self._clock_of = clock_of

    def deliver(self, msg: Message) -> None:
        raise NotImplementedError

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, describe: str
    ) -> Message:
        raise NotImplementedError

    def probe_match(self, rank: int, source: int, tag: int, ctx: int) -> bool:
        """Non-blocking: is a matching message available to *rank* now?

        Backends with out-of-band transport (the process-parallel backend's
        delivery queues) override this to ingest pending deliveries before
        consulting the mailbox.
        """
        return self.mailboxes[rank].has_match(source, tag, ctx)

    # -- posted receives (the nonblocking layer) --------------------------
    # The run-to-block backends mutate mailboxes only from the single
    # running rank, so the base implementations need no locking; the
    # threaded backend overrides them to serialise under the destination
    # rank's condition lock.
    def post_receive(self, rank: int, source: int, tag: int, ctx: int) -> int:
        """Post a receive pattern on *rank*'s mailbox; returns a post id."""
        return self.mailboxes[rank].post(source, tag, ctx)

    def post_ready(self, rank: int, post_id: int) -> bool:
        """True when the posted receive has a message bound (non-blocking)."""
        return self.mailboxes[rank].post_ready(post_id)

    def take_post(self, rank: int, post_id: int) -> Message:
        """Remove a fulfilled posted receive and return its message."""
        return self.mailboxes[rank].take_post(post_id)

    def peek_post(self, rank: int, post_id: int) -> Message:
        """The message bound to a fulfilled posted receive (not removed)."""
        return self.mailboxes[rank].peek_post(post_id)

    def wait_any_post(self, rank: int, post_ids: list[int], describe: str) -> list[int]:
        """Block *rank* until at least one of its posted receives is
        fulfilled; returns the fulfilled subset in post order."""
        raise NotImplementedError

    def choose_completion(self, rank: int, candidates: list[tuple[int, int]]) -> int:
        """Pick which of several simultaneously-completable requests a
        ``waitany``/``waitall`` observes first.

        *candidates* is the canonical-order list of ``(source, tag)``
        pairs; the return value is a position in it.  The default (and
        the deterministic/threaded behaviour) is the first — virtual
        clocks are charged canonically regardless, so this choice only
        affects observation order.  The fuzzed backend randomises it and
        records a completion :class:`~repro.trace.events.MatchEvent`.
        """
        return 0

    def run(self, bodies: list[Callable[[], None]]) -> None:
        """Execute one body per rank to completion; raise on failure."""
        raise NotImplementedError


class DeterministicBackend(Backend):
    """Run-to-block scheduling: one rank at a time, lowest runnable first.

    Scheduling decisions come from a clock-keyed heap of *wakeable* ranks
    maintained at the moments runnability can actually change — a rank
    blocking, or a delivery fulfilling a blocked rank's predicate — so a
    pick is O(log P) rather than a scan re-evaluating every blocked
    rank's predicate.  Runnability is monotone while a rank is blocked
    (only the owner removes messages from its mailbox), so deferring
    predicate evaluation to delivery time selects exactly the rank a
    full scan would.
    """

    def __init__(self, nprocs: int):
        super().__init__(nprocs)
        self._status = [_Status.READY] * nprocs
        self._predicate: list[Callable[[], bool] | None] = [None] * nprocs
        self._describe = [""] * nprocs
        self._resume = [threading.Event() for _ in range(nprocs)]
        self._to_scheduler = threading.Event()
        self._abort = False
        self._failures: dict[int, BaseException] = {}
        #: ranks currently believed runnable
        self._wakeable: set[int] = set()
        #: (clock, rank) entries for wakeable ranks; lazily invalidated
        self._heap: list[tuple[float, int]] = []

    # -- wake bookkeeping -------------------------------------------------
    def _wake(self, rank: int) -> None:
        """Mark *rank* runnable (it is READY, or its predicate holds)."""
        if rank in self._wakeable:
            return
        self._wakeable.add(rank)
        heapq.heappush(self._heap, (self._clock_of(rank), rank))

    def _wake_if_unblocked(self, rank: int) -> None:
        """Wake a blocked rank whose wait was just satisfied by a delivery."""
        if self._status[rank] == _Status.BLOCKED and rank not in self._wakeable:
            predicate = self._predicate[rank]
            if predicate is not None and predicate():
                self._wake(rank)

    def _deposit(self, msg: Message) -> None:
        """Put *msg* in its destination mailbox and update wakeability."""
        self.mailboxes[msg.dest].put(msg)
        self._wake_if_unblocked(msg.dest)

    def _handoff(self, rank: int | None) -> bool:
        """Hand the CPU directly to the next runnable rank.

        Run-to-block has exactly one active thread, so the thread giving
        up the CPU runs the pick itself and resumes its successor in one
        context switch, instead of two via the scheduler thread.  Returns
        True when *rank* picked itself (wait already satisfiable): the
        caller keeps running, zero switches.  With no
        runnable rank, wakes the scheduler thread, which owns run
        completion, failure unwinding, and deadlock reporting.
        """
        if self._abort:
            # Unwinding: several aborted rank threads reach here at once;
            # nothing is runnable, so don't touch the shared heap.
            self._to_scheduler.set()
            return False
        nxt = self._pick_next()
        if nxt is None:
            self._to_scheduler.set()
            return False
        _STEPS.inc()
        self._status[nxt] = _Status.RUNNING
        if nxt == rank:
            return True
        self._resume[nxt].set()
        return False

    # -- transport --------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        # Only the single running rank mutates mailboxes, so no locking.
        self._deposit(msg)

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, describe: str
    ) -> Message:
        mailbox = self.mailboxes[rank]
        msg = mailbox.take_match(source, tag, ctx)
        if msg is not None:
            return msg
        self._block(rank, lambda: mailbox.has_match(source, tag, ctx), describe)
        msg = mailbox.take_match(source, tag, ctx)
        assert msg is not None, "scheduler resumed rank without a matching message"
        return msg

    def wait_any_post(self, rank: int, post_ids: list[int], describe: str) -> list[int]:
        mailbox = self.mailboxes[rank]
        ready = [p for p in post_ids if mailbox.post_ready(p)]
        if ready:
            return ready
        if len(post_ids) == 1:
            # One post: the predicate needs no any()/generator machinery.
            # It is re-evaluated on every delivery to this rank while
            # blocked, so the flat closure is worth having.
            post_id = post_ids[0]
            self._block(rank, lambda: mailbox.post_ready(post_id), describe)
        else:
            self._block(
                rank, lambda: any(mailbox.post_ready(p) for p in post_ids), describe
            )
        ready = [p for p in post_ids if mailbox.post_ready(p)]
        assert ready, "scheduler resumed rank without a fulfilled posted receive"
        return ready

    def _block(self, rank: int, predicate: Callable[[], bool], describe: str) -> None:
        if self._abort:
            raise _Aborted()
        _BLOCKS.inc()
        self._predicate[rank] = predicate
        self._describe[rank] = describe
        self._status[rank] = _Status.BLOCKED
        # Callers only block after failing to satisfy the wait directly,
        # so the predicate is false here; re-checking before handing
        # control back keeps the wakeable invariant robust even if a
        # future caller blocks with an already-satisfiable wait.  Must
        # happen before the handoff: picking reads the heap.
        if predicate():
            self._wake(rank)
        if self._handoff(rank):
            return  # picked ourselves again: no switch needed
        self._resume[rank].wait()
        self._resume[rank].clear()
        if self._abort:
            raise _Aborted()

    # -- scheduling loop ---------------------------------------------------
    def run(self, bodies: list[Callable[[], None]]) -> None:
        threads = [
            threading.Thread(
                target=self._rank_main,
                args=(rank, bodies[rank]),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        # Ranks hand off to each other directly (:meth:`_handoff`); this
        # thread sleeps until a handoff finds no runnable rank, then
        # decides completion / failure / deadlock.
        try:
            for rank in range(self.nprocs):
                self._wake(rank)
            self._handoff(None)  # kick the first rank
            while True:
                self._to_scheduler.wait()
                self._to_scheduler.clear()
                nxt = self._pick_next()
                if nxt is not None:
                    # A terminal signal raced a wake; resume and keep going.
                    _STEPS.inc()
                    self._status[nxt] = _Status.RUNNING
                    self._resume[nxt].set()
                    continue
                if self._failures or all(
                    s in (_Status.DONE, _Status.FAILED) for s in self._status
                ):
                    break
                self._raise_deadlock(threads)
        finally:
            if self._failures or any(s == _Status.BLOCKED for s in self._status):
                self._abort_all(threads)
            for t in threads:
                t.join(timeout=10.0)
        if self._failures:
            rank = min(self._failures)
            raise RankFailedError(rank, self._failures[rank]) from self._failures[rank]

    def _raise_deadlock(self, threads: list[threading.Thread]) -> None:
        self._abort_all(threads)
        waiting = {
            r: self._describe[r]
            for r in range(self.nprocs)
            if self._status[r] == _Status.BLOCKED
        }
        detail = "; ".join(f"rank {r}: {d}" for r, d in waiting.items())
        _DEADLOCKS.inc()
        raise DeadlockError(f"no rank can make progress ({detail})", waiting=waiting)

    def _pick_next(self) -> int | None:
        """The runnable rank furthest behind in virtual time.

        Scheduling in virtual-time order makes the backend a conservative
        discrete-event simulation: wall-clock interleaving tracks the
        modelled machine's timeline, so wildcard receives observe the
        message population a real run would have had.  Ties break by
        rank, keeping execution fully deterministic.

        The pick pops the heap of wakeable ranks.  A wakeable rank's clock
        cannot have moved since it was pushed (blocked ranks do not
        advance their clocks), so the heap's (clock, rank) order is the
        min-clock lowest-rank selection over all runnable ranks.
        """
        heap = self._heap
        while heap:
            _, rank = heapq.heappop(heap)
            if rank not in self._wakeable:
                continue  # lazily invalidated entry
            self._wakeable.discard(rank)
            if self._is_runnable(rank):
                return rank
        return None

    def _is_runnable(self, rank: int) -> bool:
        status = self._status[rank]
        if status == _Status.READY:
            return True
        if status == _Status.BLOCKED:
            predicate = self._predicate[rank]
            return predicate is not None and predicate()
        return False

    def _rank_main(self, rank: int, body: Callable[[], None]) -> None:
        self._resume[rank].wait()
        self._resume[rank].clear()
        try:
            if not self._abort:
                body()
            self._status[rank] = _Status.DONE
        except _Aborted:
            self._status[rank] = _Status.DONE
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailedError
            self._failures[rank] = exc
            self._status[rank] = _Status.FAILED
        finally:
            # Hand off to the next rank directly (or wake the scheduler
            # thread for terminal handling).
            self._handoff(None)

    def _abort_all(self, threads: list[threading.Thread]) -> None:
        self._abort = True
        for event in self._resume:
            event.set()


class FuzzedBackend(DeterministicBackend):
    """Schedule fuzzing: seeded-PRNG run-to-block scheduling.

    Every scheduling step picks a *uniformly random* runnable rank from a
    ``random.Random(seed)`` stream instead of the virtual-time-ordered
    choice, so each seed explores a distinct legal interleaving while the
    whole execution stays exactly reproducible: same seed ⇒ same
    scheduling decisions ⇒ same mailbox states ⇒ same results and traces.

    With ``perturb_matching`` (default on), a *wildcard* receive that has
    several legal candidate messages pending takes a random one instead of
    the earliest-arriving one.  Only choices a real machine could make are
    explored: per-source candidates are restricted to the oldest matching
    message from that source, preserving the non-overtaking guarantee.
    Each perturbed match is recorded as a
    :class:`~repro.trace.events.MatchEvent` when a tracer is installed,
    which is what the wildcard-race detector consumes.

    A :class:`FaultPlan` adds message delay/reordering and rank crashes on
    top of the random schedule.  Delayed messages are invisible to the
    destination until released; the scheduler releases them eagerly when
    no rank could otherwise run, so fault injection never manufactures a
    false deadlock.
    """

    def __init__(
        self,
        nprocs: int,
        seed: int = 0,
        perturb_matching: bool = True,
        faults: FaultPlan | None = None,
    ):
        super().__init__(nprocs)
        self.seed = seed
        self.perturb_matching = perturb_matching
        self.faults = faults
        self._rng = random.Random(seed)
        #: scheduling decisions: one (rank, virtual clock at pick time)
        #: pair per step — the replay/reproducibility log
        self.schedule_log: list[tuple[int, float]] = []
        self._step = 0
        # (source, dest) -> FIFO of (release_step, msg) still in flight
        self._delayed: dict[tuple[int, int], list[tuple[int, Message]]] = {}
        self._crashed: set[int] = set()

    def _wake(self, rank: int) -> None:
        # The fuzzed pick draws from the wakeable *set*; the heap the
        # deterministic pick pops is never consulted, so skip pushing it.
        self._wakeable.add(rank)

    # -- transport --------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        plan = self.faults
        if plan is not None and plan.delay_prob > 0.0:
            key = (msg.source, msg.dest)
            queue = self._delayed.get(key)
            # A later message on a channel with a delayed predecessor must
            # queue behind it (non-overtaking), even if it rolled "no delay".
            if queue or self._rng.random() < plan.delay_prob:
                release = self._step + 1 + self._rng.randrange(
                    max(1, plan.max_delay_steps)
                )
                if queue:
                    release = max(release, queue[-1][0])
                self._delayed.setdefault(key, []).append((release, msg))
                return
        self._deposit(msg)

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, describe: str
    ) -> Message:
        self._check_crash(rank)
        mailbox = self.mailboxes[rank]
        msg = self._take_match(rank, source, tag, ctx)
        if msg is not None:
            return msg
        self._block(rank, lambda: mailbox.has_match(source, tag, ctx), describe)
        msg = self._take_match(rank, source, tag, ctx)
        assert msg is not None, "scheduler resumed rank without a matching message"
        return msg

    def _take_match(self, rank: int, source: int, tag: int, ctx: int) -> Message | None:
        """Take a matching message, randomising *legal* wildcard choices.

        For a wildcard receive, any source's oldest matching message is a
        legal match; picking among them at random is exactly the freedom a
        real network's arrival order has.  Non-wildcard receives (and the
        per-source ordering inside a wildcard) stay canonical.
        """
        mailbox = self.mailboxes[rank]
        indices = mailbox.match_indices(source, tag, ctx)
        if not indices:
            return None
        wildcard = source == ANY_SOURCE or tag == ANY_TAG
        # Oldest legal candidate per source (non-overtaking).
        per_source: dict[int, int] = {}
        for i in indices:
            m = mailbox.peek_at(i)
            best = per_source.get(m.source)
            if best is None or m.seq < mailbox.peek_at(best).seq:
                per_source[m.source] = i
        candidates = sorted(per_source)
        if wildcard and self.perturb_matching and len(candidates) > 1:
            chosen = mailbox.take_at(per_source[self._rng.choice(candidates)])
        else:
            chosen = mailbox.take_match(source, tag, ctx)
        if wildcard and self.tracer is not None:
            clock = self._clock_of(rank)
            self.tracer.match(
                rank=rank,
                clock=clock,
                source=chosen.source,
                tag=chosen.tag,
                wildcard_source=source == ANY_SOURCE,
                wildcard_tag=tag == ANY_TAG,
                candidates=tuple(candidates),
            )
        return chosen

    def wait_any_post(self, rank: int, post_ids: list[int], describe: str) -> list[int]:
        self._check_crash(rank)
        return super().wait_any_post(rank, post_ids, describe)

    def choose_completion(self, rank: int, candidates: list[tuple[int, int]]) -> int:
        """Randomise which fulfilled request a wait observes first.

        Any completion order among simultaneously-fulfilled requests is
        legal on a real machine; exploring them perturbs the scheduler
        interleaving that follows (the rank re-blocks on the remaining
        requests after each observation).  Each perturbed choice is
        recorded as a completion :class:`~repro.trace.events.MatchEvent`
        so the verification layer can report completion-order
        nondeterminism alongside wildcard races.
        """
        if len(candidates) <= 1 or not self.perturb_matching:
            return 0
        pos = self._rng.randrange(len(candidates))
        if self.tracer is not None:
            source, tag = candidates[pos]
            self.tracer.match(
                rank=rank,
                clock=self._clock_of(rank),
                source=source,
                tag=tag,
                wildcard_source=False,
                wildcard_tag=False,
                candidates=tuple(sorted({src for src, _ in candidates})),
                completion=True,
            )
        return pos

    # -- scheduling -------------------------------------------------------
    def _pick_next(self) -> int | None:
        self._step += 1
        self._flush_delayed()
        runnable = self._runnable_ranks()
        while not runnable and self._force_release_delayed():
            runnable = self._runnable_ranks()
        if not runnable and self._crash_scheduled():
            # Everyone is blocked but a crash is still due in the future:
            # let the idle time pass so the fault (not a spurious deadlock)
            # resolves the wait.
            self._step = max(self._step, self.faults.crash_at_step)
            runnable = self._runnable_ranks()
        if not runnable:
            return None
        choice = self._rng.choice(runnable)
        self._wakeable.discard(choice)
        self.schedule_log.append((choice, self._clock_of(choice)))
        return choice

    def _runnable_ranks(self) -> list[int]:
        # A blocked rank whose crash is due counts as runnable so it can be
        # scheduled once more and raise, instead of hanging forever on a
        # receive that will never be satisfied.  The wakeable set is
        # exactly {READY or predicate-true BLOCKED} (monotone runnability,
        # maintained at deposit/block time), so sorting it gives the
        # ascending runnable list the rng draws from.
        ranks = set(self._wakeable)
        plan = self.faults
        if plan is not None and plan.crash_rank is not None:
            crash_rank = plan.crash_rank
            if self._status[crash_rank] == _Status.BLOCKED and self._crash_due(crash_rank):
                ranks.add(crash_rank)
        return sorted(ranks)

    def _flush_delayed(self) -> None:
        for key in list(self._delayed):
            queue = self._delayed[key]
            while queue and queue[0][0] <= self._step:
                self._deposit(queue.pop(0)[1])
            if not queue:
                del self._delayed[key]

    def _force_release_delayed(self) -> bool:
        """Release the earliest in-flight delayed message (avoids declaring
        a deadlock while injected delays still hold messages)."""
        best_key = None
        for key, queue in self._delayed.items():
            if best_key is None or queue[0][0] < self._delayed[best_key][0][0]:
                best_key = key
        if best_key is None:
            return False
        queue = self._delayed[best_key]
        self._deposit(queue.pop(0)[1])
        if not queue:
            del self._delayed[best_key]
        return True

    # -- fault injection --------------------------------------------------
    def _crash_scheduled(self) -> bool:
        """A crash is planned and has not fired yet, and its target rank is
        still alive (so fast-forwarding to the crash step can unblock)."""
        plan = self.faults
        return (
            plan is not None
            and plan.crash_rank is not None
            and plan.crash_rank not in self._crashed
            and self._status[plan.crash_rank]
            not in (_Status.DONE, _Status.FAILED)
        )

    def _crash_due(self, rank: int) -> bool:
        plan = self.faults
        return (
            plan is not None
            and plan.crash_rank == rank
            and self._step >= plan.crash_at_step
            and rank not in self._crashed
        )

    def _check_crash(self, rank: int) -> None:
        if self._crash_due(rank):
            self._crashed.add(rank)
            raise InjectedFaultError(
                f"injected crash of rank {rank} at scheduler step {self._step}"
            )

    def _block(self, rank: int, predicate: Callable[[], bool], describe: str) -> None:
        super()._block(rank, predicate, describe)
        # Resumed either because the predicate holds or because the crash
        # came due while blocked; the crash wins.
        self._check_crash(rank)


class ThreadedBackend(Backend):
    """Free-running threads with condition-variable mailboxes.

    ``deadlock_timeout`` bounds how long a receive may wait without any
    message arriving for it before the run is declared deadlocked.

    This backend ignores :meth:`Backend.set_clock_source`: ranks
    interleave in host wall-clock order, not virtual-time order (see the
    contract on that method).
    """

    def __init__(self, nprocs: int, deadlock_timeout: float = 30.0):
        super().__init__(nprocs)
        self.deadlock_timeout = deadlock_timeout
        self._locks = [threading.Lock() for _ in range(nprocs)]
        self._conds = [threading.Condition(self._locks[i]) for i in range(nprocs)]
        self._failed = threading.Event()
        self._failures: dict[int, BaseException] = {}

    def deliver(self, msg: Message) -> None:
        cond = self._conds[msg.dest]
        with cond:
            self.mailboxes[msg.dest].put(msg)
            cond.notify_all()

    def wait_for_match(
        self, rank: int, source: int, tag: int, ctx: int, describe: str
    ) -> Message:
        cond = self._conds[rank]
        mailbox = self.mailboxes[rank]
        with cond:
            start = time.monotonic()
            while True:
                msg = mailbox.take_match(source, tag, ctx)
                if msg is not None:
                    return msg
                if self._failed.is_set():
                    raise _Aborted()
                # Wait out the full remaining budget on the condition
                # variable: a delivery or failure notifies, so idle waits
                # burn no wake cycles, and the timeout is measured from
                # the monotonic clock instead of accumulated in coarse
                # polling steps that could overshoot by up to 100 ms.
                waited = time.monotonic() - start
                remaining = self.deadlock_timeout - waited
                if remaining <= 0.0:
                    _DEADLOCKS.inc()
                    raise DeadlockError(
                        f"rank {rank} waited {waited:.1f}s for {describe}; "
                        "presumed deadlock",
                        waiting={rank: describe},
                    )
                cond.wait(remaining)

    # Posted-receive operations serialise with deliveries under the
    # destination rank's condition lock (the mailbox itself is unlocked).
    def post_receive(self, rank: int, source: int, tag: int, ctx: int) -> int:
        with self._conds[rank]:
            return self.mailboxes[rank].post(source, tag, ctx)

    def post_ready(self, rank: int, post_id: int) -> bool:
        with self._conds[rank]:
            return self.mailboxes[rank].post_ready(post_id)

    def take_post(self, rank: int, post_id: int) -> Message:
        with self._conds[rank]:
            return self.mailboxes[rank].take_post(post_id)

    def peek_post(self, rank: int, post_id: int) -> Message:
        with self._conds[rank]:
            return self.mailboxes[rank].peek_post(post_id)

    def probe_match(self, rank: int, source: int, tag: int, ctx: int) -> bool:
        with self._conds[rank]:
            return self.mailboxes[rank].has_match(source, tag, ctx)

    def wait_any_post(self, rank: int, post_ids: list[int], describe: str) -> list[int]:
        cond = self._conds[rank]
        mailbox = self.mailboxes[rank]
        with cond:
            start = time.monotonic()
            while True:
                ready = [p for p in post_ids if mailbox.post_ready(p)]
                if ready:
                    return ready
                if self._failed.is_set():
                    raise _Aborted()
                waited = time.monotonic() - start
                remaining = self.deadlock_timeout - waited
                if remaining <= 0.0:
                    _DEADLOCKS.inc()
                    raise DeadlockError(
                        f"rank {rank} waited {waited:.1f}s for {describe}; "
                        "presumed deadlock",
                        waiting={rank: describe},
                    )
                cond.wait(remaining)

    def run(self, bodies: list[Callable[[], None]]) -> None:
        threads = [
            threading.Thread(
                target=self._rank_main,
                args=(rank, bodies[rank]),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._failures:
            rank = min(self._failures)
            exc = self._failures[rank]
            if isinstance(exc, DeadlockError):
                raise exc
            raise RankFailedError(rank, exc) from exc

    def _rank_main(self, rank: int, body: Callable[[], None]) -> None:
        try:
            body()
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailedError
            self._failures[rank] = exc
            self._failed.set()
            # Wake every waiting rank so the run can unwind.
            for cond in self._conds:
                with cond:
                    cond.notify_all()
