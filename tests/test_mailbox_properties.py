"""Property-based Mailbox tests (seeded stdlib ``random``).

Each property generates a randomized stream of messages and receive
patterns from ``random.Random(seed)`` and checks the matching invariants
the runtime's correctness rests on:

- match order is by earliest virtual arrival (ties by source, then seq),
  independent of delivery order;
- wildcard source/tag patterns match exactly the envelope predicate;
- FIFO per (source, tag): same-channel messages are always taken in send
  order, under any receive pattern that matches them;
- ``has_match``/``take_match``/``match_indices`` agree with each other.
"""

import random
import time

import pytest

from repro.runtime.mailbox import Mailbox, _LinearMailbox
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message

SEEDS = range(20)


def _random_messages(rng: random.Random, n: int) -> list[Message]:
    """A legal message population: per-source seq strictly increasing and
    arrival nondecreasing in seq (clocks are monotonic)."""
    seq_of: dict[int, int] = {}
    clock_of: dict[int, float] = {}
    out = []
    for _ in range(n):
        source = rng.randrange(4)
        seq_of[source] = seq_of.get(source, 0) + 1
        clock_of[source] = clock_of.get(source, 0.0) + rng.random()
        out.append(
            Message(
                source=source,
                dest=0,
                tag=rng.randrange(3),
                payload=None,
                nbytes=8,
                arrival=clock_of[source],
                seq=seq_of[source],
            )
        )
    return out


def _drain(mailbox: Mailbox, source: int, tag: int) -> list[Message]:
    out = []
    while True:
        msg = mailbox.take_match(source, tag)
        if msg is None:
            return out
        out.append(msg)


@pytest.mark.parametrize("seed", SEEDS)
def test_match_order_is_arrival_order_regardless_of_delivery_order(seed):
    rng = random.Random(seed)
    msgs = _random_messages(rng, 30)
    delivery = msgs[:]
    rng.shuffle(delivery)  # delivery order ≠ send order
    mailbox = Mailbox()
    for m in delivery:
        mailbox.put(m)
    drained = _drain(mailbox, ANY_SOURCE, ANY_TAG)
    keys = [(m.arrival, m.source, m.seq) for m in drained]
    assert keys == sorted(keys), "wildcard drain not in (arrival, source, seq) order"
    assert len(drained) == len(msgs)


@pytest.mark.parametrize("seed", SEEDS)
def test_wildcard_patterns_match_exactly_the_predicate(seed):
    rng = random.Random(seed)
    msgs = _random_messages(rng, 25)
    for pattern_source in (ANY_SOURCE, 0, 1, 2, 3):
        for pattern_tag in (ANY_TAG, 0, 1, 2):
            mailbox = Mailbox()
            for m in msgs:
                mailbox.put(m)
            expected = [
                m
                for m in msgs
                if (pattern_source in (ANY_SOURCE, m.source))
                and (pattern_tag in (ANY_TAG, m.tag))
            ]
            assert mailbox.has_match(pattern_source, pattern_tag) == bool(expected)
            assert len(mailbox.match_indices(pattern_source, pattern_tag)) == len(
                expected
            )
            drained = _drain(mailbox, pattern_source, pattern_tag)
            assert sorted((m.source, m.seq) for m in drained) == sorted(
                (m.source, m.seq) for m in expected
            )
            # Non-matching messages must all still be pending.
            assert len(mailbox) == len(msgs) - len(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_per_source_and_tag(seed):
    """Under a random interleaving of receives (random legal patterns),
    messages on one (source, tag) channel come out in send order."""
    rng = random.Random(seed)
    msgs = _random_messages(rng, 40)
    mailbox = Mailbox()
    for m in msgs:
        mailbox.put(m)
    taken: list[Message] = []
    while len(mailbox):
        source = rng.choice([ANY_SOURCE, 0, 1, 2, 3])
        tag = rng.choice([ANY_TAG, 0, 1, 2])
        msg = mailbox.take_match(source, tag)
        if msg is not None:
            taken.append(msg)
    per_channel: dict[tuple[int, int], list[int]] = {}
    for m in taken:
        per_channel.setdefault((m.source, m.tag), []).append(m.seq)
    for channel, seqs in per_channel.items():
        assert seqs == sorted(seqs), f"channel {channel} violated FIFO: {seqs}"
    assert len(taken) == len(msgs)


@pytest.mark.parametrize("seed", SEEDS)
def test_take_match_agrees_with_match_indices(seed):
    rng = random.Random(seed)
    msgs = _random_messages(rng, 20)
    mailbox = Mailbox()
    for m in msgs:
        mailbox.put(m)
    for _ in range(60):
        source = rng.choice([ANY_SOURCE, 0, 1, 2, 3])
        tag = rng.choice([ANY_TAG, 0, 1, 2])
        indices = mailbox.match_indices(source, tag)
        assert mailbox.has_match(source, tag) == bool(indices)
        if indices:
            # take_match must return one of the enumerated candidates —
            # specifically the earliest-arriving one.
            candidates = [mailbox.peek_at(i) for i in indices]
            best = min(candidates, key=lambda m: (m.arrival, m.source, m.seq))
            msg = mailbox.take_match(source, tag)
            assert msg is best
        if not len(mailbox):
            break


@pytest.mark.parametrize("seed", SEEDS)
def test_ctx_isolation(seed):
    """Messages of one communication context are invisible to another's
    receives, wildcards included."""
    rng = random.Random(seed)
    mailbox = Mailbox()
    counts = {0: 0, 1: 0}
    for i in range(20):
        ctx = rng.randrange(2)
        counts[ctx] += 1
        mailbox.put(
            Message(
                source=rng.randrange(3),
                dest=0,
                tag=0,
                payload=None,
                nbytes=8,
                arrival=float(i),
                seq=i,
                ctx=ctx,
            )
        )
    for ctx, expected in counts.items():
        got = 0
        while mailbox.take_match(ANY_SOURCE, ANY_TAG, ctx) is not None:
            got += 1
        assert got == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_mailbox_equals_linear_reference(seed):
    """Drive the channel-indexed mailbox and the historical linear-scan
    implementation with one randomized stream of deliveries, blocking
    takes, indexed takes (the fuzzer's path), and posted receives; every
    observable — selected messages, membership, post fulfilment, queue
    length — must agree at every step."""
    rng = random.Random(1000 + seed)
    fast = Mailbox()
    ref = _LinearMailbox()
    feed = iter(_random_messages(rng, 80))
    live_posts: list[tuple[int, int]] = []  # (fast post_id, ref post_id)
    for _ in range(400):
        action = rng.random()
        source = rng.choice([ANY_SOURCE, 0, 1, 2, 3])
        tag = rng.choice([ANY_TAG, 0, 1, 2])
        if action < 0.35:
            msg = next(feed, None)
            if msg is not None:
                fast.put(msg)
                ref.put(msg)
        elif action < 0.55:
            a, b = fast.take_match(source, tag), ref.take_match(source, tag)
            assert a is b, f"take_match({source}, {tag}) diverged"
        elif action < 0.70:
            # The fuzzed backend's arbitrary-candidate path: enumerate the
            # legal choices, take the same (kth) candidate from each.
            # Index values differ between implementations (tombstoned
            # slots vs a dense deque), so compare the *messages*.
            ia, ib = fast.match_indices(source, tag), ref.match_indices(source, tag)
            assert [fast.peek_at(i) for i in ia] == [ref.peek_at(i) for i in ib]
            if ia:
                k = rng.randrange(len(ia))
                assert fast.take_at(ia[k]) is ref.take_at(ib[k])
        elif action < 0.80:
            pa, pb = fast.post(source, tag), ref.post(source, tag)
            live_posts.append((pa, pb))
        elif action < 0.90 and live_posts:
            pa, pb = rng.choice(live_posts)
            assert fast.post_ready(pa) == ref.post_ready(pb)
            if fast.post_ready(pa):
                assert fast.peek_post(pa) is ref.peek_post(pb)
                assert fast.take_post(pa) is ref.take_post(pb)
                live_posts.remove((pa, pb))
        else:
            assert fast.has_match(source, tag) == ref.has_match(source, tag)
        assert len(fast) == len(ref)
        assert fast.posts_pending() == ref.posts_pending()
    assert sorted((m.source, m.seq) for m in fast.snapshot()) == sorted(
        (m.source, m.seq) for m in ref.snapshot()
    )


def _deep_queue(box: Mailbox, depth: int) -> None:
    """Fill *box* with *depth* same-channel messages (worst case for the
    linear scan: every exact take re-walks the whole queue)."""
    for i in range(depth):
        box.put(
            Message(
                source=0, dest=0, tag=0, payload=None,
                nbytes=8, arrival=float(i), seq=i + 1,
            )
        )


def _drain_exact(box: Mailbox, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        assert box.take_match(0, 0) is not None
    return time.perf_counter() - start


def test_exact_match_is_constant_time_at_depth_1000():
    """The PR-4 microbenchmark: draining 1000 exact matches from a
    depth-1000 queue is O(n) total on the indexed mailbox but O(n^2) on
    the historical one (full scan per take plus ``del deque[i]``).  The
    asymptotic gap at this depth is ~100x, so asserting a modest 3x
    keeps the test meaningful yet immune to CI noise."""
    depth = 1000
    best_fast, best_ref = float("inf"), float("inf")
    for _ in range(3):
        fast = Mailbox()
        _deep_queue(fast, depth)
        best_fast = min(best_fast, _drain_exact(fast, depth))
        ref = _LinearMailbox()
        _deep_queue(ref, depth)
        best_ref = min(best_ref, _drain_exact(ref, depth))
    assert best_fast < best_ref / 3, (
        f"indexed drain {best_fast * 1e3:.2f}ms not clearly faster than "
        f"linear reference {best_ref * 1e3:.2f}ms at depth {depth}"
    )
