"""The copy-on-write payload contract of point-to-point messaging.

A received ndarray is read-only (``np.asarray(x).copy()`` to mutate)
and shares no mutable memory with the sender; forwarded frozen payloads
are shared zero-copy.  That the runtime keeps its historical schedules
and clocks is pinned separately, by ``test_golden_schedule.py``.
"""

import numpy as np
import pytest

from repro import spmd_run


def _send_then_mutate(comm):
    if comm.rank == 0:
        arr = np.arange(8.0)
        comm.send(1, arr)
        arr[0] = 99.0  # must not reach the receiver
        return None
    if comm.rank == 1:
        return comm.recv(0)
    return None


def test_received_array_is_readonly():
    res = spmd_run(2, _send_then_mutate)
    got = res.values[1]
    assert not got.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        got[0] = -1.0
    # The documented mutation idiom always works.
    mine = np.asarray(got).copy()
    mine[0] = -1.0
    assert mine[0] == -1.0


def test_sender_mutation_after_send_is_isolated():
    res = spmd_run(2, _send_then_mutate)
    np.testing.assert_array_equal(res.values[1], np.arange(8.0))


def _bcast_array(comm):
    value = np.arange(16.0) if comm.rank == 0 else None
    return comm.bcast(value, root=0)


def test_forwarded_frozen_payload_is_shared_zero_copy():
    """A non-root bcast hop receives an already-frozen buffer and
    forwards that same object to its children instead of re-copying.
    (In the 4-rank binomial tree rank 2 forwards root's message to
    rank 3.)"""
    res = spmd_run(4, _bcast_array)
    received = [res.values[r] for r in range(1, 4)]
    for arr in received:
        np.testing.assert_array_equal(arr, np.arange(16.0))
        assert not arr.flags.writeable
    assert res.values[3] is res.values[2]


def _recv_then_forward(comm):
    if comm.rank == 0:
        comm.send(1, np.arange(4.0))
        return None
    if comm.rank == 1:
        got = comm.recv(0)
        comm.send(2, got)  # forwarding a frozen array must not re-copy
        return got
    return comm.recv(1)


def test_forwarding_a_received_array_shares_it():
    res = spmd_run(3, _recv_then_forward)
    assert res.values[2] is res.values[1]
