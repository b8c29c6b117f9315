"""The par-loop IR: data descriptors, access modes, kernels, loops.

The mesh-spectral hot path used to be interpret-per-op: every
``stencil_op``/``point_op`` independently walked ghosts, sliced
interiors, and allocated numpy temporaries, so the runtime could never
see across op boundaries.  This module gives programs a way to *declare*
each sweep instead (the PyOP2 Sets/Dats/Kernels move, and the
access-mode vocabulary of Danelutto & Torquati's state-access-pattern
work): a :class:`Dat` wraps a distributed grid field, an :class:`Arg`
binds it to one loop with an access mode (:data:`READ`/:data:`WRITE`/
:data:`RW`/:data:`INC`) and a declared halo depth, and a
:class:`ParLoop` pairs a :class:`Kernel` body with its argument list.
The runtime (:mod:`repro.kernels.runtime`) then fuses adjacent loops
whose access sets compose and hoists ghost exchanges that feed multiple
ops — legality rules live in :mod:`repro.kernels.plan`.

Layering: this module sits below :mod:`repro.core.meshspectral` (which
re-exports :class:`StencilView` and :func:`split_deep_shell` for
backward compatibility) and imports only errors + numpy.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ArchetypeError

if TYPE_CHECKING:  # import cycle guard: core.grid is above us in layering
    from repro.core.grid import DistGrid


class Access(enum.Enum):
    """How one loop argument touches its dat (per point)."""

    READ = "read"
    WRITE = "write"
    RW = "rw"
    INC = "inc"

    @property
    def reads(self) -> bool:
        return self is not Access.WRITE

    @property
    def writes(self) -> bool:
        return self is not Access.READ


READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC


def _normalize_periodic(
    periodic: tuple[bool, ...] | bool, ndim: int
) -> tuple[bool, ...]:
    if isinstance(periodic, bool):
        return (periodic,) * ndim
    return tuple(bool(p) for p in periodic)


class Dat:
    """Data descriptor: a distributed grid field plus kernel bookkeeping.

    One :class:`Dat` exists per grid per rank (use :func:`dat_of`, which
    caches the descriptor on the grid object — never keyed by ``id()``,
    which could be reused after garbage collection).  ``clean`` maps a
    ghost key ``(periodic, edges)`` to the engine epoch at which this
    dat's ghosts were last refreshed with that configuration; the
    planner skips (hoists) an exchange whose key is clean at the current
    epoch.  Any kernel write clears the map; raw (undeclared) writes are
    covered by the engine epoch bump (see
    :class:`repro.kernels.runtime.KernelEngine`).
    """

    __slots__ = ("grid", "clean")

    def __init__(self, grid: DistGrid):
        self.grid = grid
        self.clean: dict[tuple, int] = {}

    # -- access-mode constructors (the declarative app-facing API) -----------
    def read(
        self,
        halo: int = 0,
        periodic: tuple[bool, ...] | bool = False,
        edges: str | None = None,
        exchange: bool = True,
    ) -> Arg:
        return Arg(self, READ, halo=halo, periodic=periodic, edges=edges, exchange=exchange)

    def write(self) -> Arg:
        return Arg(self, WRITE)

    def rw(self) -> Arg:
        return Arg(self, RW)

    def inc(self) -> Arg:
        return Arg(self, INC)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dat(shape={self.grid.interior.shape}, ghost={self.grid.ghost})"


def dat_of(grid: DistGrid) -> Dat:
    """The (cached) data descriptor for *grid* on this rank."""
    dat = getattr(grid, "_kernel_dat", None)
    if dat is None:
        dat = Dat(grid)
        grid._kernel_dat = dat
    return dat


class Arg:
    """One loop argument: a dat bound to an access mode.

    *halo* is the stencil radius the kernel body reads around each
    point (0 = pointwise).  It drives fusion legality and the
    deep/shell split; the exchange itself always refreshes the grid's
    full ghost width (slab geometry is fixed by the allocation).
    *periodic*/*edges* describe the ghost configuration a halo read
    needs (``edges`` as in :meth:`DistGrid.fill_edge_ghosts`).
    *exchange=False* declares the halo already valid by construction
    (the caller manages ghosts).

    Two internal flags serve the legacy shims: *fresh* forces the
    exchange (and never records cleanliness) because the old APIs made
    no write declarations, so ghost validity cannot be tracked across
    calls; *corners* demands the serialised blocking exchange whose
    corner ghosts are correct (box stencils).
    """

    __slots__ = ("dat", "mode", "halo", "periodic", "edges", "exchange", "fresh", "corners")

    def __init__(
        self,
        dat: Dat | DistGrid,
        mode: Access,
        halo: int = 0,
        periodic: tuple[bool, ...] | bool = False,
        edges: str | None = None,
        exchange: bool = True,
        fresh: bool = False,
        corners: bool = False,
    ):
        if not isinstance(dat, Dat):
            dat = dat_of(dat)
        if halo < 0:
            raise ArchetypeError(f"negative halo {halo}")
        if halo > 0 and mode is not READ:
            raise ArchetypeError(
                "halo reads require mode READ; writes are pointwise "
                "(paper §3.1: outputs disjoint from stencil inputs)"
            )
        if halo > 0 and dat.grid.ghost < max(1, halo):
            raise ArchetypeError(
                f"declared halo {halo} exceeds grid ghost width {dat.grid.ghost}"
            )
        self.dat = dat
        self.mode = mode
        self.halo = halo
        self.periodic = _normalize_periodic(periodic, dat.grid.ndim)
        self.edges = edges
        self.exchange = exchange
        self.fresh = fresh
        self.corners = corners

    @property
    def grid(self) -> DistGrid:
        return self.dat.grid

    # duck-typed exchange-request surface consumed by
    # repro.comm.boundary.dedup_exchange_requests
    @property
    def local(self) -> np.ndarray:
        return self.dat.grid.local

    @property
    def cart(self) -> Any:
        return self.dat.grid.cart

    @property
    def ghost(self) -> int:
        return self.dat.grid.ghost

    @property
    def needs_exchange(self) -> bool:
        """True when this argument asks the planner for a ghost refresh."""
        return self.mode.reads and self.halo > 0 and self.exchange

    @property
    def ghost_key(self) -> tuple:
        """Validity key: two refreshes with equal keys are interchangeable."""
        return (self.periodic, self.edges, self.corners)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Arg({self.mode.name}, halo={self.halo})"


class Kernel:
    """A kernel body called per region as ``fn(*views)``.

    Views follow the argument order: plain aligned interior views for
    halo-0 arguments, :class:`StencilView` for halo reads.  The body
    must be *elementwise* (each output point depends only on the view
    values at that point / its declared halo), which is exactly what
    makes tiled fused execution bitwise-identical to one whole-region
    call.
    """

    __slots__ = ("fn", "name")

    kind = "views"

    def __init__(self, fn: Callable[..., None], name: str = "kernel"):
        self.fn = fn
        self.name = name


class RegionKernel(Kernel):
    """A kernel body called as ``fn(region)`` with interior-coordinate
    slices (the :meth:`MeshContext.overlapped_update` calling
    convention).  Same elementwise/tiling-safety contract as
    :class:`Kernel`; the body slices its own grids."""

    kind = "region"


@dataclass(frozen=True)
class Ref:
    """A binding to one loop argument: *index* into the arg list, read
    at *offset* (a stencil shift; ``None`` means the aligned view)."""

    index: int
    offset: tuple[int, ...] | None = None


class ExprKernel(Kernel):
    """A kernel body given as one elementwise expression string.

    ``bindings`` maps each free name of *expr* to a :class:`Ref` (a view
    of one loop argument, optionally stencil-shifted) or a plain scalar
    constant.  The result is assigned into argument 0's view, evaluated
    by numpy.  The expression is self-describing for docs and traces.
    Example — the Jacobi sweep::

        ExprKernel(
            "0.25 * (un + us + uw + ue - h2 * f)",
            {"un": Ref(1, (-1, 0)), "us": Ref(1, (1, 0)),
             "uw": Ref(1, (0, -1)), "ue": Ref(1, (0, 1)),
             "f": Ref(2), "h2": h2},
            name="jacobi",
        )
    """

    __slots__ = ("expr", "bindings", "_code")

    def __init__(self, expr: str, bindings: dict[str, Ref | float], name: str = "expr"):
        super().__init__(self._evaluate, name=name)
        self.expr = expr
        self.bindings = dict(bindings)
        self._code = compile(expr, f"<kernel {name}>", "eval")

    def _evaluate(self, out: np.ndarray, *rest: Any) -> None:
        views = (out, *rest)
        ns: dict[str, object] = {}
        for name, binding in self.bindings.items():
            if isinstance(binding, Ref):
                view = views[binding.index]
                if isinstance(view, StencilView):
                    ns[name] = view[binding.offset] if binding.offset else view.center
                elif binding.offset and any(binding.offset):
                    raise ArchetypeError(
                        f"binding {name!r} has offset {binding.offset} but its "
                        "argument is pointwise (declare a halo on the READ arg)"
                    )
                else:
                    ns[name] = view
            else:
                ns[name] = binding
        out[...] = eval(self._code, {"__builtins__": {}}, ns)


class ParLoop:
    """One declared parallel loop: kernel + args + iteration region.

    The region is the owned interior of the first argument's grid
    intersected with *margin* cells from the **global** edge (matching
    ``stencil_op``).  Loops are queued by the engine and executed in
    groups; *overlap* is the resolved exchange mode (the context default
    already applied).  *writes_undeclared* marks legacy region kernels
    whose write set is unknown — they fuse with nothing and bump the
    validity epoch.
    """

    __slots__ = (
        "kernel",
        "args",
        "region",
        "flops_per_point",
        "label",
        "overlap",
        "writes_undeclared",
    )

    def __init__(
        self,
        kernel: Kernel,
        args: list[Arg],
        margin: int | tuple[int, ...] = 0,
        flops_per_point: float = 0.0,
        label: str | None = None,
        overlap: bool = False,
        writes_undeclared: bool = False,
    ):
        if not args:
            raise ArchetypeError("a par-loop needs at least one argument")
        anchor = args[0].grid
        for a in args[1:]:
            if a.grid.layout.rects != anchor.layout.rects:
                raise ArchetypeError(
                    "grids in one operation must share a distribution; "
                    "redistribute first"
                )
        # §3.1: an output may never alias a stencil (halo > 0) input.
        writes = [a for a in args if a.mode.writes]
        for a in args:
            if a.halo > 0 and any(w.grid.local is a.grid.local for w in writes):
                raise ArchetypeError(
                    "grid operations reading neighbours require output "
                    "disjoint from inputs (paper §3.1)"
                )
        if kernel.kind == "views":
            for a in args:
                if a.mode is not READ and a.halo > 0:
                    raise ArchetypeError(
                        "non-READ view arguments must be pointwise (halo 0)"
                    )
        self.kernel = kernel
        self.args = args
        self.region = anchor.interior_intersection(margin)
        self.flops_per_point = float(flops_per_point)
        self.label = label or kernel.name
        self.overlap = overlap
        self.writes_undeclared = writes_undeclared

    @property
    def halo_max(self) -> int:
        return max((a.halo for a in self.args), default=0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.args[0].grid.interior.shape


class StencilView:
    """Shifted-neighbour access for stencil updates.

    Indexing with an offset tuple returns the input array shifted by that
    offset, aligned with the output region: ``u[-1, 0]`` is "the value one
    row up from each updated point".  Offsets beyond the ghost width (or
    the declared halo, when one is given) raise.
    """

    def __init__(
        self, grid: DistGrid, region: tuple[slice, ...], halo: int | None = None
    ):
        self._arr = grid.local
        self._ghost = grid.ghost if halo is None else min(halo, grid.ghost)
        # region is expressed in interior coordinates; shift to ghosted.
        g = grid.ghost
        self._region = tuple(
            slice(s.start + g, s.stop + g) for s in region
        )

    def __getitem__(self, offsets: tuple[int, ...] | int) -> np.ndarray:
        if isinstance(offsets, int):
            offsets = (offsets,)
        if len(offsets) != self._arr.ndim:
            raise ArchetypeError(
                f"stencil offset {offsets} does not match grid rank {self._arr.ndim}"
            )
        if any(abs(o) > self._ghost for o in offsets):
            raise ArchetypeError(
                f"stencil offset {offsets} exceeds ghost width {self._ghost}"
            )
        return self._arr[
            tuple(slice(s.start + o, s.stop + o) for s, o in zip(self._region, offsets))
        ]

    @property
    def center(self) -> np.ndarray:
        """The unshifted view (offset all-zero)."""
        return self._arr[self._region]


def split_deep_shell(
    region: tuple[slice, ...], ghost: int, shape: tuple[int, ...]
) -> tuple[tuple[slice, ...], list[tuple[slice, ...]]]:
    """Split *region* (slices into an owned section of *shape*) for
    compute/communication overlap.

    Returns ``(deep, shells)``: *deep* is the subregion whose cells lie at
    least *ghost* from every owned-section edge — stencil reads of radius
    up to *ghost* from a deep cell never touch a ghost layer, so deep
    cells can be updated while the exchange is in flight; *shells* are
    disjoint tiles covering the rest of the region, updated after the
    exchange completes.  Together they tile *region* exactly, so charging
    per tile sums to the one-region charge.
    """
    deep = []
    for s, n in zip(region, shape):
        lo = min(max(s.start, ghost), s.stop)
        hi = max(min(s.stop, n - ghost), lo)
        deep.append(slice(lo, hi))
    shells: list[tuple[slice, ...]] = []
    for d, (s, ds) in enumerate(zip(region, deep)):
        # Axes before d take the deep band, axis d one of the two shell
        # slabs, axes after d the full region extent: every non-deep cell
        # lands in exactly one tile (indexed by its first non-deep axis).
        prefix = tuple(deep[:d])
        suffix = tuple(region[d + 1 :])
        if s.start < ds.start:
            shells.append(prefix + (slice(s.start, ds.start),) + suffix)
        if ds.stop < s.stop:
            shells.append(prefix + (slice(ds.stop, s.stop),) + suffix)
    return tuple(deep), shells


def region_size(region: tuple[slice, ...]) -> int:
    """Number of points in a region of slices."""
    n = 1
    for s in region:
        n *= max(s.stop - s.start, 0)
    return n


def build_views(loop: ParLoop, region: tuple[slice, ...]) -> list[Any]:
    """Materialise the kernel-body views for one region, in arg order."""
    views: list[Any] = []
    for a in loop.args:
        if a.mode is READ and a.halo > 0:
            views.append(StencilView(a.grid, region, halo=a.halo))
        else:
            views.append(a.grid.interior[region])
    return views
