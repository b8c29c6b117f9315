"""Golden schedules: the runtime's exact scheduling behaviour, pinned.

Four workloads at P=8 with fixed-iteration parameters run under the
deterministic backend and under fuzzed seeds 0-2.  Each run pins

- the virtual makespan, compared exactly (not approx);
- the scheduler step count and the mailbox enqueue/match counts;
- for fuzzed runs, the digest of ``RunResult.schedule`` — the fuzzed
  backend's (rank, clock) pick log, so any change to which rank runs
  next, or to how many picks a run takes, shows up here;
- for mergesort, whose results are integers, the result digest.

The golden values were recorded before the runtime's historical twins
(linear-scan scheduler pick, eager payload copies, lock-per-event
metrics) were retired, so passing means the heap pick and the direct
handoff keep the historical schedule bit for bit.  Float-valued results
are not digested, so a different numpy build cannot flake the test.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.apps import registry
from repro.obs.metrics import scoped_registry
from repro.verify import fuzzed_schedule, value_digest

NPROCS = 8
SEEDS = (None, 0, 1, 2)  # None = the deterministic backend

PARAMS = {
    "poisson": {"nprocs": NPROCS, "nx": 48, "ny": 48, "tolerance": 0.0, "max_iters": 8},
    "fft2d": {"nprocs": NPROCS, "rows": 64, "cols": 64, "repeats": 2, "seed": 0},
    "mergesort": {"nprocs": NPROCS, "n": 4096, "seed": 0},
    # a blur farm of width 3 makes the pipeline 8 ranks wide
    "imagepipe": {"width": 3, "window": 2, "items": 6, "rows": 8, "cols": 8, "seed": 3},
}

#: apps whose results are integer-valued, so their digest is build-stable
DIGESTED = ("mergesort",)


def observe(app: str, seed: int | None) -> dict:
    """One run's pinned observables."""
    schedule = contextlib.nullcontext() if seed is None else fuzzed_schedule(seed)
    with scoped_registry() as metrics, schedule:
        res = registry.get(app).run(PARAMS[app], machine="ibm-sp")
    assert res.nprocs == NPROCS
    counts = {
        name: int(metrics.get(f"runtime.{name}").value)
        for name in ("scheduler.steps", "mailbox.enqueued", "mailbox.matched")
    }
    return {
        "makespan": res.elapsed,
        **counts,
        "schedule": None if res.schedule is None else value_digest(res.schedule),
        "digest": value_digest(res.values) if app in DIGESTED else None,
    }


#: recorded with the linear-scan pick, eager copies and lock-per-event
#: metrics still selectable; both runtime paths produced these values
GOLDEN: dict[tuple[str, int | None], dict] = {
    ("fft2d", None): {
        "makespan": 0.009364959999999995,
        "scheduler.steps": 179,
        "mailbox.enqueued": 357,
        "mailbox.matched": 357,
        "schedule": None,
        "digest": None,
    },
    ("fft2d", 0): {
        "makespan": 0.009364959999999995,
        "scheduler.steps": 188,
        "mailbox.enqueued": 357,
        "mailbox.matched": 357,
        "schedule": "4e947f9fc60fbda636984c2e043773740db89ffb5994fb7335eeca92e0b047ec",
        "digest": None,
    },
    ("fft2d", 1): {
        "makespan": 0.009364959999999995,
        "scheduler.steps": 186,
        "mailbox.enqueued": 357,
        "mailbox.matched": 357,
        "schedule": "80ac9f429baef2e674ef805feeaa79477c882eea9ca1bbc9b63458d9a95cd4d2",
        "digest": None,
    },
    ("fft2d", 2): {
        "makespan": 0.009364959999999995,
        "scheduler.steps": 180,
        "mailbox.enqueued": 357,
        "mailbox.matched": 357,
        "schedule": "872e073ff60442aed21e4a5f301ee6e9144148761116d9d7e7587ab55aa84c85",
        "digest": None,
    },
    ("imagepipe", None): {
        "makespan": 0.0016138000000000005,
        "scheduler.steps": 29,
        "mailbox.enqueued": 69,
        "mailbox.matched": 69,
        "schedule": None,
        "digest": None,
    },
    ("imagepipe", 0): {
        "makespan": 0.0016138000000000005,
        "scheduler.steps": 38,
        "mailbox.enqueued": 69,
        "mailbox.matched": 69,
        "schedule": "4ab1c77d89aceeeb121df2cc1b3cff4772254e22450819a905e285c81db7a267",
        "digest": None,
    },
    ("imagepipe", 1): {
        "makespan": 0.0016138000000000005,
        "scheduler.steps": 39,
        "mailbox.enqueued": 69,
        "mailbox.matched": 69,
        "schedule": "664be45eade6d61599d451b1a88ffee322026600f47f187a70fb971bf66c7ec5",
        "digest": None,
    },
    ("imagepipe", 2): {
        "makespan": 0.0016138000000000005,
        "scheduler.steps": 31,
        "mailbox.enqueued": 69,
        "mailbox.matched": 69,
        "schedule": "911159a46f18326e1e8c6012989db02f99501c425324b27ad88052b264b0b8be",
        "digest": None,
    },
    ("mergesort", None): {
        "makespan": 0.0023089600000000005,
        "scheduler.steps": 38,
        "mailbox.enqueued": 112,
        "mailbox.matched": 112,
        "schedule": None,
        "digest": "2af197559554ea94ab071ccbd6fba15f66b89382969949fe239a615ed94dda57",
    },
    ("mergesort", 0): {
        "makespan": 0.0023089600000000005,
        "scheduler.steps": 48,
        "mailbox.enqueued": 112,
        "mailbox.matched": 112,
        "schedule": "3e8efdae1f4e4334e9ee7b8c5e7585a89f69e6fa9102db06463bd7a70e6df9f6",
        "digest": "2af197559554ea94ab071ccbd6fba15f66b89382969949fe239a615ed94dda57",
    },
    ("mergesort", 1): {
        "makespan": 0.0023089600000000005,
        "scheduler.steps": 52,
        "mailbox.enqueued": 112,
        "mailbox.matched": 112,
        "schedule": "32bdea44e116e801b34ebe814244a231cacb824e806c47029cbeb366f433a5fd",
        "digest": "2af197559554ea94ab071ccbd6fba15f66b89382969949fe239a615ed94dda57",
    },
    ("mergesort", 2): {
        "makespan": 0.0023089600000000005,
        "scheduler.steps": 56,
        "mailbox.enqueued": 112,
        "mailbox.matched": 112,
        "schedule": "1cec62851a1f0b2567fe37f3c211ae46240cec53c35920dbaccf183a9a34f732",
        "digest": "2af197559554ea94ab071ccbd6fba15f66b89382969949fe239a615ed94dda57",
    },
    ("poisson", None): {
        "makespan": 0.0035143679999999964,
        "scheduler.steps": 147,
        "mailbox.enqueued": 352,
        "mailbox.matched": 352,
        "schedule": None,
        "digest": None,
    },
    ("poisson", 0): {
        "makespan": 0.0035143679999999964,
        "scheduler.steps": 166,
        "mailbox.enqueued": 352,
        "mailbox.matched": 352,
        "schedule": "34a14737ba6421384958d909f290bb36722932120d0c80b6f1720b1387d0efde",
        "digest": None,
    },
    ("poisson", 1): {
        "makespan": 0.0035143679999999964,
        "scheduler.steps": 172,
        "mailbox.enqueued": 352,
        "mailbox.matched": 352,
        "schedule": "47c7bcae42c70d08bb29a68dc7b161c7aa6de31334671e90cbf5e20552049867",
        "digest": None,
    },
    ("poisson", 2): {
        "makespan": 0.0035143679999999964,
        "scheduler.steps": 171,
        "mailbox.enqueued": 352,
        "mailbox.matched": 352,
        "schedule": "3f215bd6a8616ae9c60613dfdb64f7b3f49ef82f4dc3c8c285b3d6abb498d53e",
        "digest": None,
    },
}


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: "det" if s is None else f"seed{s}")
@pytest.mark.parametrize("app", sorted(PARAMS))
def test_golden_schedule(app, seed):
    assert observe(app, seed) == GOLDEN[app, seed]
