"""Host-time A/B levers: one interleaved, digest-gated harness.

A :class:`Lever` is a switch that must not change what a program
computes, only how fast the simulator computes it: the two sides of the
A/B run the same registry apps (:mod:`repro.apps.registry`) and must be
observationally identical — same per-rank values, same final virtual
clocks, checked with a digest.  Only host time may differ, and that is
what each row measures.

Samples alternate off/on rather than running one side's repeats back to
back, so slow host drift (thermal throttling, noisy CI neighbours)
cancels out of the ratio instead of masquerading as an effect of the
lever.  Apps run without tracing, so the measurement isolates the
runtime hot path rather than trace-event appends.

Two levers are declared:

* ``parallel`` — the deterministic backend vs one OS process per rank
  (:mod:`repro.runtime.parallel`) on the messaging-heavy trio at 16
  ranks.  The achievable speedup is bounded by the host's core count, so
  every row records ``host_cpus`` and the CI floor applies only on hosts
  with at least :attr:`Lever.min_cpus` cores — on a 1-2 core container
  the parallel backend pays process/IPC overhead with no cores to win
  back, and an honest artifact shows that rather than gating on it.
* ``kernels`` — par-loop fusion off vs on (:func:`repro.kernels.
  fusion_forced`).  The kernel plan (grouping, exchange packs, hoists,
  charges) is identical in both modes; only the group-body walk changes.
  The rows are the mesh-spectral apps whose steps declare several loops
  over the same region, and the ``core.kernels.*`` counters record how
  much fusion and hoisting actually happened.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Mapping
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from functools import partial

from repro.apps import registry
from repro.kernels import fusion_forced
from repro.obs.metrics import scoped_registry
from repro.runtime.backends import BACKEND_ENV
from repro.runtime.spmd import RunResult
from repro.verify.digest import value_digest

#: host-time samples per (app, side); best-of is reported
DEFAULT_REPEATS = 3


def host_cpus() -> int:
    """Cores this process may run on (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _backend_env(name: str):
    """Scope ``REPRO_BACKEND`` to *name*."""
    previous = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous


@dataclass(frozen=True)
class Lever:
    """One host-time A/B: two contexts that must not change any digest."""

    name: str
    description: str
    #: (off, on) side labels; rows report ``wall_<label>_seconds``
    labels: tuple[str, str]
    #: zero-argument factories for the off and on context managers
    off: Callable[[], AbstractContextManager]
    on: Callable[[], AbstractContextManager]
    #: default rank count for every row
    nprocs: int
    #: app -> (machine name, parameter overrides onto the registry defaults)
    rows: Mapping[str, tuple[str, Mapping]]
    #: metric names captured from the on side's run into each row
    counters: tuple[str, ...] = ()
    #: the speedup floor applies only on hosts with at least this many cores
    min_cpus: int = 1

    def run(self, app: str, nprocs: int | None = None) -> RunResult:
        """One untraced run of *app*'s row (whichever side is in scope)."""
        machine, overrides = self.rows[app]
        params = {**overrides, "nprocs": nprocs or self.nprocs}
        return registry.get(app).run(params, machine=machine)


@dataclass(frozen=True)
class ABRow:
    """One app's off-vs-on measurement under a lever."""

    lever: Lever
    app: str
    nprocs: int
    host_cpus: int
    wall_off: float  #: best-of-N host seconds, off side
    wall_on: float  #: best-of-N host seconds, on side
    virtual_elapsed: float  #: virtual makespan of the off side
    digest: str  #: digest of the off side's (times, values)
    identical: bool  #: did both sides produce the same digest?
    counters: dict = field(default_factory=dict)  #: lever.counters (on side)

    @property
    def speedup(self) -> float:
        """Host-time ratio off/on (>1 means the on side is faster)."""
        return self.wall_off / self.wall_on if self.wall_on > 0 else float("inf")

    def to_json(self) -> dict:
        off, on = self.lever.labels
        return {
            "app": self.app,
            "procs": self.nprocs,
            "host_cpus": self.host_cpus,
            f"wall_{off}_seconds": self.wall_off,
            f"wall_{on}_seconds": self.wall_on,
            "speedup": self.speedup,
            "virtual_elapsed_seconds": self.virtual_elapsed,
            "digest": self.digest,
            "identical": self.identical,
            "counters": self.counters,
        }


def _short(metric: str) -> str:
    """Row/column key of a captured metric: its last dotted component."""
    return metric.rsplit(".", 1)[-1]


def _sample(lever: Lever, app: str, nprocs: int, on: bool):
    """One timed run on one side; returns (host seconds, result, counters)."""
    with (lever.on if on else lever.off)(), scoped_registry() as reg:
        start = time.perf_counter()
        result = lever.run(app, nprocs)
        elapsed = time.perf_counter() - start
        snap = reg.snapshot()
    counters = {_short(m): snap[m]["value"] for m in lever.counters if m in snap}
    return elapsed, result, counters


def run_ablation(
    lever: Lever,
    apps: list[str] | None = None,
    nprocs: int | None = None,
    repeats: int = DEFAULT_REPEATS,
) -> list[ABRow]:
    """Run *lever*'s A/B for each of its apps (default: all its rows)."""
    cpus = host_cpus()
    nprocs = nprocs or lever.nprocs
    rows: list[ABRow] = []
    for app in apps or list(lever.rows):
        wall_off = wall_on = float("inf")
        for _ in range(repeats):
            t, res_off, _ = _sample(lever, app, nprocs, False)
            wall_off = min(wall_off, t)
            t, res_on, counters = _sample(lever, app, nprocs, True)
            wall_on = min(wall_on, t)
        digest_off = value_digest([res_off.times, res_off.values])
        digest_on = value_digest([res_on.times, res_on.values])
        rows.append(
            ABRow(
                lever=lever,
                app=app,
                nprocs=nprocs,
                host_cpus=cpus,
                wall_off=wall_off,
                wall_on=wall_on,
                virtual_elapsed=max(res_off.times),
                digest=digest_off,
                identical=digest_off == digest_on,
                counters=counters,
            )
        )
    return rows


def render_table(lever: Lever, rows: list[ABRow]) -> str:
    off, on = lever.labels
    cpus = rows[0].host_cpus if rows else host_cpus()
    names = [_short(m) for m in lever.counters]
    lines = [
        f"{lever.name} A/B: {lever.description} (host seconds, best of N; "
        f"{cpus} host cores; virtual time identical)",
        f"{'app':>13} {'P':>3} {off + ' (s)':>13} {on + ' (s)':>13} {'speedup':>8} "
        f"{'virtual (s)':>12} {'identical':>9}"
        + "".join(f" {n}" for n in names),
    ]
    for r in rows:
        lines.append(
            f"{r.app:>13} {r.nprocs:>3} {r.wall_off:>13.4f} {r.wall_on:>13.4f} "
            f"{r.speedup:>7.2f}x {r.virtual_elapsed:>12.6g} "
            f"{'yes' if r.identical else 'NO':>9}"
            + "".join(f" {r.counters.get(n, 0):>{len(n)}.0f}" for n in names)
        )
    return "\n".join(lines)


def check_rows(
    lever: Lever, rows: list[ABRow], min_speedup: float | None
) -> list[str]:
    """Gate failures: digest mismatches always fail; *min_speedup* (when
    given) is a generous CI floor the best row must clear — and only on
    hosts with at least ``lever.min_cpus`` cores.  Host timing on shared
    runners is noisy, so the floor guards against the lever being
    silently broken, not against modest regressions."""
    problems = [
        f"{r.app}: the {lever.name} lever changed observable results "
        "(digest mismatch)"
        for r in rows
        if not r.identical
    ]
    if min_speedup is not None and rows and rows[0].host_cpus >= lever.min_cpus:
        best = max(rows, key=lambda r: r.speedup)
        if best.speedup < min_speedup:
            problems.append(
                f"best {lever.name} speedup {best.speedup:.2f}x ({best.app}) below "
                f"the floor {min_speedup:.2f}x on a {best.host_cpus}-core host"
            )
    return problems


LEVERS: dict[str, Lever] = {
    lever.name: lever
    for lever in (
        Lever(
            name="parallel",
            description="deterministic backend vs one OS process per rank",
            labels=("serial", "parallel"),
            off=partial(_backend_env, "deterministic"),
            on=partial(_backend_env, "parallel"),
            nprocs=16,
            rows={
                "poisson": ("ibm-sp", {"max_iters": 8}),
                "fft2d": ("ibm-sp", {"repeats": 2}),
                "mergesort": ("intel-delta", {"n": 4096}),
            },
            min_cpus=4,
        ),
        Lever(
            name="kernels",
            description="par-loop fusion off vs on, same kernel plan",
            labels=("unfused", "fused"),
            off=partial(fusion_forced, False),
            on=partial(fusion_forced, True),
            nprocs=2,
            rows={
                "poisson": ("ibm-sp", {"nx": 256, "ny": 256, "max_iters": 10}),
                # Large enough that the per-step eight-loop chain's
                # working set spills cache unfused — what fusion is for.
                "smog": ("ibm-sp", {"nx": 512, "ny": 512, "steps": 4}),
                "spectralflow": ("ibm-sp", {"nr": 256, "nz": 256, "steps": 4}),
            },
            counters=tuple(
                f"core.kernels.{n}"
                for n in (
                    "loops",
                    "groups",
                    "loops_fused",
                    "exchanges",
                    "exchanges_hoisted",
                    "dats_packed",
                    "tiles",
                )
            ),
        ),
    )
}
