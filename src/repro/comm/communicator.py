"""The communicator: collectives over point-to-point messaging.

:class:`Comm` extends the runtime's :class:`~repro.runtime.context.RankContext`
with the collective operations the archetypes need.  Every collective is
built from point-to-point sends/receives using the classical algorithms,
so the virtual-time cost of a collective is the cost of its actual message
pattern on the modelled machine.

SPMD contract: all ranks must call the same collectives in the same order.
Each collective call consumes one slot of a reserved tag space; mismatched
call sequences therefore show up as a :class:`~repro.errors.DeadlockError`
rather than silent data corruption.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CommError
from repro.comm.reductions import Op
from repro.runtime.context import RankContext
from repro.util.nbytes import nbytes_of

#: user tags must stay below this value
MAX_USER_TAG = 1 << 20
#: collective tags occupy [_COLL_TAG_BASE, _COLL_TAG_BASE + _COLL_TAG_SPAN)
_COLL_TAG_BASE = 1 << 24
_COLL_TAG_SPAN = 1 << 20


class Comm(RankContext):
    """A rank's communicator: point-to-point plus collectives."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._coll_seq = 0

    # -- internal helpers ---------------------------------------------------
    def _coll_tag(self) -> int:
        """Next tag in the collective tag space (same on all ranks when the
        SPMD contract is respected)."""
        tag = _COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_SPAN)
        self._coll_seq += 1
        return tag

    def send(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ) -> None:
        if 0 <= tag < MAX_USER_TAG or tag >= _COLL_TAG_BASE:
            super().send(dest, payload, tag, nbytes=nbytes)
        else:
            raise CommError(f"user tags must be < {MAX_USER_TAG} (got {tag})")

    def isend(
        self, dest: int, payload: Any, tag: int = 0, *, nbytes: int | None = None
    ):
        if 0 <= tag < MAX_USER_TAG or tag >= _COLL_TAG_BASE:
            return super().isend(dest, payload, tag, nbytes=nbytes)
        raise CommError(f"user tags must be < {MAX_USER_TAG} (got {tag})")

    def _validate_send_tag(self, tag: int) -> None:
        # Mirror of send/isend's user-tag window, for the fused sendrecv
        # (which bypasses those wrappers).
        if not (0 <= tag < MAX_USER_TAG or tag >= _COLL_TAG_BASE):
            raise CommError(f"user tags must be < {MAX_USER_TAG} (got {tag})")

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommError(f"root {root} out of range for size {self.size}")

    # -- sub-communicators ------------------------------------------------------
    def split(self, color: Any, key: int | None = None) -> "Comm | None":
        """Partition this communicator into sub-communicators (MPI-style).

        Collective: every rank calls it with a *color*; ranks sharing a
        color form a new communicator, ordered by *key* (default: current
        rank).  Ranks passing ``color=None`` receive ``None`` back.

        Sub-communicators are the substrate for *archetype composition*
        (paper §6: "task-parallel compositions of data-parallel
        computations"): disjoint groups can each run a different archetype
        program concurrently, exchanging results through the parent
        communicator.  Each group gets a fresh communication context, so
        its traffic — including wildcard receives — never matches another
        group's or the parent's.

        Virtual time is per *rank*, not per group: a sub-communicator
        shares its parent's clock.
        """
        my_entry = (color, self.rank if key is None else key, self.rank)
        entries = self.allgather(my_entry)
        ctx = self._endpoint.next_ctx
        self._endpoint.next_ctx += 1
        if color is None:
            return None
        members = sorted((k, r) for c, k, r in entries if c == color)
        member_ranks = [r for _, r in members]
        group = type(self).__new__(type(self))
        group.rank = member_ranks.index(self.rank)
        group.size = len(member_ranks)
        group.machine = self.machine
        group._backend = self._backend
        group._tracer = self._tracer
        group._endpoint = self._endpoint
        group._ctx = ctx
        group._group = [self._to_global(r) for r in member_ranks]
        group._coll_seq = 0
        return group

    # -- barrier --------------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 P) rounds of shifted exchanges."""
        tag = self._coll_tag()
        k = 1
        while k < self.size:
            self.sendrecv(
                (self.rank + k) % self.size,
                None,
                (self.rank - k) % self.size,
                send_tag=tag,
            )
            k <<= 1

    # -- broadcast --------------------------------------------------------------
    def bcast(self, value: Any = None, root: int = 0) -> Any:
        """Binomial-tree broadcast of *value* from *root*; returns it on
        every rank.  Non-root ranks may pass anything (ignored)."""
        self._check_root(root)
        tag = self._coll_tag()
        if self.size == 1:
            return value
        relrank = (self.rank - root) % self.size
        nbytes: int | None = None
        mask = 1
        while mask < self.size:
            if relrank & mask:
                src = (relrank - mask + root) % self.size
                msg = self.recv_msg(src, tag=tag)
                value, nbytes = msg.payload, msg.nbytes
                break
            mask <<= 1
        # Forward to children: relrank + mask/2, mask/4, ..., 1.  On break,
        # mask is this rank's lowest set bit (its parent link); for the
        # root the loop ended with the first power of two >= size.  Either
        # way the children start one bit below.
        mask >>= 1
        if mask > 0 and nbytes is None:
            # The root measures its buffer once; every other hop reuses
            # the received envelope's size instead of re-traversing the
            # same payload per child.
            nbytes = nbytes_of(value)
        while mask > 0:
            if relrank + mask < self.size:
                dst = (relrank + mask + root) % self.size
                self.send(dst, value, tag=tag, nbytes=nbytes)
            mask >>= 1
        return value

    # -- reduce -----------------------------------------------------------------
    def reduce(self, value: Any, op: Op, root: int = 0) -> Any:
        """Binomial-tree reduction to *root*; returns the result on root and
        ``None`` elsewhere.  Operands combine in canonical rank order."""
        self._check_root(root)
        tag = self._coll_tag()
        relrank = (self.rank - root) % self.size
        acc = value
        # Known size of acc's payload, when an envelope already measured
        # it (ops like min/max return an operand, so the accumulator is
        # often exactly a received buffer).  None ⇒ send re-measures.
        acc_nbytes: int | None = None
        mask = 1
        while mask < self.size:
            if relrank & mask:
                dst = (((relrank & ~mask)) + root) % self.size
                self.send(dst, acc, tag=tag, nbytes=acc_nbytes)
                break
            src_rel = relrank | mask
            if src_rel < self.size:
                msg = self.recv_msg((src_rel + root) % self.size, tag=tag)
                received = msg.payload
                # The child's subtree covers higher relative ranks, so the
                # canonical (rank-ordered) combination is acc `op` received.
                combined = op(acc, received)
                if combined is received:
                    acc_nbytes = msg.nbytes
                elif combined is not acc:
                    acc_nbytes = None
                acc = combined
            mask <<= 1
        return acc if self.rank == root else None

    def allreduce(self, value: Any, op: Op) -> Any:
        """Recursive-doubling allreduce (the paper's Figure 8 pattern).

        Returns the reduction of all ranks' values on every rank, combined
        in canonical rank order so results are bitwise identical on all
        ranks even for floating-point operands.
        """
        tag = self._coll_tag()
        size = self.size
        if size == 1:
            return value
        pof2 = 1
        while pof2 * 2 <= size:
            pof2 *= 2
        rem = size - pof2

        # Fold the surplus ranks into the power-of-two core.
        if self.rank < 2 * rem:
            if self.rank % 2 == 0:
                self.send(self.rank + 1, value, tag=tag)
                newrank = -1
            else:
                received = self.recv(self.rank - 1, tag=tag)
                value = op(received, value)
                newrank = self.rank // 2
        else:
            newrank = self.rank - rem

        if newrank != -1:
            mask = 1
            while mask < pof2:
                partner_new = newrank ^ mask
                partner = (
                    partner_new * 2 + 1 if partner_new < rem else partner_new + rem
                )
                other = self.sendrecv(partner, value, partner, send_tag=tag)
                value = op(other, value) if partner_new < newrank else op(value, other)
                mask <<= 1

        # Unfold: surviving odd ranks push the result back to their pair.
        if self.rank < 2 * rem:
            if self.rank % 2 == 1:
                self.send(self.rank - 1, value, tag=tag)
            else:
                value = self.recv(self.rank + 1, tag=tag)
        return value

    # -- gather / scatter ----------------------------------------------------------
    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to *root* (rank-ordered list on root,
        ``None`` elsewhere)."""
        self._check_root(root)
        tag = self._coll_tag()
        if self.rank != root:
            self.send(root, value, tag=tag)
            return None
        out: list[Any] = [None] * self.size
        out[root] = value
        for src in range(self.size):
            if src != root:
                out[src] = self.recv(src, tag=tag)
        return out

    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        """Scatter ``values[i]`` from *root* to rank ``i``; returns the local
        item on every rank."""
        self._check_root(root)
        tag = self._coll_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise CommError(
                    f"scatter on root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, values[dst], tag=tag)
            return values[root]
        return self.recv(root, tag=tag)

    def allgather(self, value: Any) -> list[Any]:
        """Ring allgather: P-1 rounds of neighbour shifts; returns the
        rank-ordered list of all values on every rank."""
        tag = self._coll_tag()
        out: list[Any] = [None] * self.size
        out[self.rank] = value
        if self.size == 1:
            return out
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        idx, cur = self.rank, value
        for _ in range(self.size - 1):
            idx, cur = self.sendrecv(right, (idx, cur), left, send_tag=tag)
            out[idx] = cur
        return out

    # -- all-to-all -------------------------------------------------------------
    def alltoall(self, values: list[Any]) -> list[Any]:
        """Personalised all-to-all: send ``values[j]`` to rank ``j``; returns
        the list whose ``i``-th entry came from rank ``i``.

        Payload sizes may differ per destination (the MPI ``alltoallv``
        case).  Pairwise-exchange schedule: P-1 rounds of rotated partners.
        """
        if len(values) != self.size:
            raise CommError(
                f"alltoall needs exactly {self.size} values, got {len(values)}"
            )
        tag = self._coll_tag()
        out: list[Any] = [None] * self.size
        out[self.rank] = values[self.rank]
        for k in range(1, self.size):
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            out[src] = self.sendrecv(dst, values[dst], src, send_tag=tag)
        return out

    # -- scan ------------------------------------------------------------------
    def scan(self, value: Any, op: Op) -> Any:
        """Inclusive prefix reduction (Hillis–Steele, ceil(log2 P) rounds):
        rank ``i`` receives ``op(v_0, ..., v_i)``."""
        rounds = 0
        d = 1
        while d < self.size:
            rounds += 1
            d <<= 1
        tags = [self._coll_tag() for _ in range(rounds)]
        acc = value
        d = 1
        for tag in tags:
            dest = self.rank + d if self.rank + d < self.size else None
            source = self.rank - d if self.rank - d >= 0 else None
            received = self.sendrecv(dest, acc, source, send_tag=tag)
            if source is not None:
                acc = op(received, acc)
            d <<= 1
        return acc
