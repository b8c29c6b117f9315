"""The par-loop execution engine: queueing, fusion, exchange hoisting.

One :class:`KernelEngine` lives on each rank's ``MeshContext``.  Loops
submitted via :meth:`KernelEngine.submit` execute immediately unless a
``with engine.fuse():`` block is open, in which case they queue and
flush together at block exit — giving the planner a window of adjacent
loops to fuse and a wider scope for exchange dedup.  All state (queue,
validity epoch, fuse depth) is per rank: under the threads backend every
rank shares one process, and any cross-rank sharing here would let one
rank's writes perturb another rank's message pattern.

**The fusion switch changes execution, never the plan.**  Groups,
exchange packs, hoists, deep/shell splits, and the charge sequence are
computed identically whether ``REPRO_KERNEL_FUSION`` is on or off; the
switch only selects how a group's bodies walk the region —

- *fused*: the region is tiled into cache-sized row blocks and every
  loop body runs per tile (loop-interleaved, hot data stays resident);
- *unfused*: each loop body runs once over the whole region, in order.

Because kernel bodies are elementwise, the two walks compute the same
value at every point in the same per-point order, so results are
bitwise-identical — and since neither communication nor charges depend
on the switch, virtual clocks and traces are identical too.  That
invariant is what lets ``tests/test_kernels.py`` gate fusion with the
digest machinery across all four backends.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator

from repro.comm.boundary import (
    exchange_ghosts,
    exchange_ghosts_many,
    exchange_ghosts_many_start,
    exchange_ghosts_start,
)
from repro.kernels.ir import (
    ParLoop,
    build_views,
    region_size,
    split_deep_shell,
)
from repro.kernels.plan import LoopGroup, build_groups, plan_exchanges
from repro.obs.metrics import counter_handle

_FUSION_ENV = "REPRO_KERNEL_FUSION"
_TILE_ENV = "REPRO_KERNEL_TILE_BYTES"
#: default fused-tile footprint: the slice of all group arrays walked per
#: tile stays within a typical per-core last-level-cache share.  Smaller
#: tiles fit tighter caches but multiply the per-tile Python dispatch
#: cost; 4 MiB is where the mesh-spectral chains come out ahead.
_DEFAULT_TILE_BYTES = 1 << 22

_fusion_enabled: bool = os.environ.get(_FUSION_ENV, "1").lower() not in (
    "0",
    "false",
    "off",
)

_LOOPS = counter_handle("core.kernels.loops", help="par-loops declared")
_GROUPS = counter_handle("core.kernels.groups", help="fusion groups executed")
_LOOPS_FUSED = counter_handle(
    "core.kernels.loops_fused",
    help="par-loops executed tile-interleaved with at least one neighbour",
)
_EXCHANGES = counter_handle(
    "core.kernels.exchanges", help="ghost exchanges performed (packed counts once)"
)
_EXCHANGES_HOISTED = counter_handle(
    "core.kernels.exchanges_hoisted",
    help="ghost exchanges skipped because the dat's halo was still valid",
)
_DATS_PACKED = counter_handle(
    "core.kernels.dats_packed",
    help="dats whose refresh rode a packed multi-array exchange",
)
_TILES = counter_handle("core.kernels.tiles", help="fused row-block tiles executed")


def fusion_enabled() -> bool:
    """True when fused (tile-interleaved) group execution is active."""
    return _fusion_enabled


def set_fusion(flag: bool) -> bool:
    """Set the fusion flag; returns the previous value.  The flag is
    mirrored into the environment so backend workers spawned later (the
    parallel backend forks one process per rank) derive the same mode."""
    global _fusion_enabled
    previous = _fusion_enabled
    _fusion_enabled = bool(flag)
    os.environ[_FUSION_ENV] = "1" if flag else "0"
    return previous


@contextlib.contextmanager
def fusion_forced(flag: bool) -> Iterator[None]:
    """Force fusion on/off for the duration of the block — the A/B lever
    used by ``python -m repro.bench kernels`` and the identity tests."""
    previous = set_fusion(flag)
    try:
        yield
    finally:
        set_fusion(previous)


def tile_bytes() -> int:
    try:
        return max(1, int(os.environ.get(_TILE_ENV, _DEFAULT_TILE_BYTES)))
    except ValueError:
        return _DEFAULT_TILE_BYTES


def _row_tiles(
    region: tuple[slice, ...], group: LoopGroup
) -> list[tuple[slice, ...]]:
    """Tile *region* along axis 0 into row blocks whose combined
    working set (all distinct group arrays) fits the tile budget."""
    s0 = region[0]
    nrows = s0.stop - s0.start
    row_elems = region_size((slice(0, 1),) + region[1:])
    seen: set[int] = set()
    row_bytes = 0
    for loop in group.loops:
        for a in loop.args:
            if id(a.grid.local) in seen:
                continue
            seen.add(id(a.grid.local))
            row_bytes += row_elems * a.grid.local.itemsize
    rows_per_tile = max(1, tile_bytes() // max(row_bytes, 1))
    if rows_per_tile >= nrows:
        return [region]
    return [
        (slice(lo, min(lo + rows_per_tile, s0.stop)),) + region[1:]
        for lo in range(s0.start, s0.stop, rows_per_tile)
    ]


class KernelEngine:
    """Per-rank par-loop queue, planner driver, and executor."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.queue: list[ParLoop] = []
        self._fuse_depth = 0
        #: validity epoch: bumped whenever a loop with an undeclared
        #: write set runs, invalidating every dat's ghost cleanliness
        #: (a raw write could have hit any grid).
        self.epoch = 0

    # -- submission -----------------------------------------------------------
    def submit(self, loop: ParLoop) -> None:
        """Queue one loop; executes immediately outside a fuse block."""
        _LOOPS.inc()
        self.queue.append(loop)
        if self._fuse_depth == 0:
            self.flush()

    @contextlib.contextmanager
    def fuse(self) -> Iterator[None]:
        """Batch the loops declared inside the block into one flush, so
        adjacent compatible loops fuse and exchanges dedup across them."""
        self._fuse_depth += 1
        try:
            yield
        finally:
            self._fuse_depth -= 1
            if self._fuse_depth == 0:
                self.flush()

    def flush(self) -> None:
        """Plan and execute every queued loop, in declaration order."""
        if not self.queue:
            return
        loops, self.queue = self.queue, []
        for group in build_groups(loops):
            self._run_group(group)

    # -- write tracking for non-kernel operations -----------------------------
    def note_write(self, grid) -> None:
        """Record that *grid* was written outside any kernel (row/col
        ops, redistribution targets, file input): its ghosts are stale."""
        dat = getattr(grid, "_kernel_dat", None)
        if dat is not None:
            dat.clean.clear()

    # -- execution ------------------------------------------------------------
    def _run_group(self, group: LoopGroup) -> None:
        comm = self.mesh.comm
        plan = plan_exchanges(group, self.epoch)
        _GROUPS.inc()
        if plan.hoisted:
            _EXCHANGES_HOISTED.inc(plan.hoisted)
        region = group.region
        use_overlap = group.overlap and not plan.empty
        if use_overlap:
            handles = []
            for a in plan.serial:
                # corner-correct requests never reach the overlap path
                # (legacy shims request corners only in blocking mode),
                # but stay safe if one does: exchange before compute.
                exchange_ghosts(comm, a.local, a.cart, a.ghost, a.periodic)
                _EXCHANGES.inc()
            for pack in plan.packs:
                first = pack[0]
                if len(pack) == 1:
                    handles.append(
                        exchange_ghosts_start(
                            comm, first.local, first.cart, first.ghost, first.periodic
                        )
                    )
                else:
                    handles.append(
                        exchange_ghosts_many_start(
                            comm,
                            [a.local for a in pack],
                            first.cart,
                            first.ghost,
                            first.periodic,
                        )
                    )
                    _DATS_PACKED.inc(len(pack))
                _EXCHANGES.inc()
            for a in plan.fills:
                # physical-edge ghosts have no neighbour; filling them
                # does not race the in-flight slabs.
                a.grid.fill_edge_ghosts(a.edges)
            deep, shells = split_deep_shell(
                region, max(group.halo_max, 1), group.shape
            )
            self._run_phase(group, deep)
            for handle in handles:
                handle.wait()
            for tile in shells:
                self._run_phase(group, tile)
        else:
            for a in plan.serial:
                exchange_ghosts(comm, a.local, a.cart, a.ghost, a.periodic)
                _EXCHANGES.inc()
            for pack in plan.packs:
                first = pack[0]
                if len(pack) == 1:
                    exchange_ghosts(
                        comm, first.local, first.cart, first.ghost, first.periodic
                    )
                else:
                    exchange_ghosts_many(
                        comm,
                        [a.local for a in pack],
                        first.cart,
                        first.ghost,
                        first.periodic,
                    )
                    _DATS_PACKED.inc(len(pack))
                _EXCHANGES.inc()
            for a in plan.fills:
                a.grid.fill_edge_ghosts(a.edges)
            self._run_phase(group, region)
        # Post-state: refreshed dats are clean at this epoch, written
        # dats are dirty (clean marks land first, so a dat both read and
        # written in the group correctly ends dirty).
        for dat, key in plan.performed:
            dat.clean[key] = self.epoch
        for dat in group.writes:
            dat.clean.clear()
        if any(loop.writes_undeclared for loop in group.loops):
            self.epoch += 1

    def _run_phase(self, group: LoopGroup, region: tuple[slice, ...]) -> None:
        """Charge and execute every group loop over one region tile.

        The charge sequence (one charge per loop, declaration order,
        zero-point phases silent) is fixed here and shared by both
        fusion modes — the virtual-clock half of the A/B identity.
        """
        npoints = region_size(region)
        if npoints == 0:
            return
        comm = self.mesh.comm
        working_set = self.mesh.working_set
        for loop in group.loops:
            if loop.flops_per_point:
                comm.charge(
                    loop.flops_per_point * npoints,
                    label=loop.label,
                    working_set_bytes=working_set,
                )
        if fusion_enabled() and len(group.loops) > 1:
            tiles = _row_tiles(region, group)
            for tile in tiles:
                for loop in group.loops:
                    self._run_body(loop, tile)
            _TILES.inc(len(tiles))
            _LOOPS_FUSED.inc(len(group.loops))
        else:
            for loop in group.loops:
                self._run_body(loop, region)

    def _run_body(self, loop: ParLoop, region: tuple[slice, ...]) -> None:
        kernel = loop.kernel
        if kernel.kind == "region":
            kernel.fn(region)
            return
        kernel.fn(*build_views(loop, region))
