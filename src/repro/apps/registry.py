"""Named application workloads: one registry from app names to runs.

Every consumer that needs "how do I run mergesort on 4 ranks" — the obs
CLI, the host-time A/B levers (:mod:`repro.bench.ab`), the autotuner,
the cross-backend digest matrix (:mod:`repro.verify.crossbackend`), the
conformance registry (:mod:`repro.verify.conformance`) and the job
server (:mod:`repro.serve`) — resolves it here: an :class:`AppSpec` per
application, resolvable by string, with JSON-able parameters (every knob
is a scalar with a default) so a request like ``{"app": "poisson",
"params": {"nx": 64}}`` fully determines a run.

A spec also declares what is known about the program's performance: the
paper's archetypes "may also be helpful in developing performance models
for classes of programs with common structure" (§1.1), so an app with a
closed-form model carries it as :attr:`AppSpec.predict`, and the tuner
and the obs CLI ask the spec rather than keeping tables of their own.

Determinism contract: an app's runner derives *all* of its input from
the parameter dict (data seeds included), so two runs with equal
``(app, params, machine, backend, seed)`` produce bitwise-identical
digests — the property the serve result cache keys on.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.machines.catalog import IDEAL, get_machine
from repro.machines.model import MachineModel
from repro.runtime.spmd import RunResult


@dataclass(frozen=True)
class AppSpec:
    """One named workload: how to run an application from plain parameters."""

    #: registry key (the name requests and CLIs resolve)
    name: str
    #: archetype family the app exercises (diagnostics / grouping)
    archetype: str
    description: str
    #: ``runner(params, machine=..., mode=..., trace=...) -> RunResult``;
    #: *params* is :attr:`defaults` overlaid with the caller's overrides
    runner: Callable[..., RunResult]
    #: every knob the app accepts, with its default value (JSON-able
    #: scalars only, so specs serialise over the serve wire protocol)
    defaults: Mapping[str, Any]
    #: reduced sizes for verification runs (conformance programs and the
    #: cross-backend digest matrix) — overrides applied onto defaults
    verify_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: ``predict(params, machine, proc_grid=None) -> float``: the
    #: closed-form virtual makespan (:mod:`repro.bench.predict`) of a run
    #: with full *params* (defaults overlaid); ``None`` when the app has
    #: no model
    predict: Callable[..., float] | None = None

    def params_with(self, overrides: Mapping[str, Any] | None = None) -> dict:
        """Defaults overlaid with *overrides*; unknown keys are an error."""
        merged = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(self.defaults))
            if unknown:
                raise ReproError(
                    f"app {self.name!r} has no parameter(s) {unknown}; "
                    f"knows {sorted(self.defaults)}"
                )
            merged.update(overrides)
        return merged

    def run(
        self,
        params: Mapping[str, Any] | None = None,
        *,
        machine: MachineModel | str = IDEAL,
        mode: str | None = None,
        trace: bool = False,
    ) -> RunResult:
        """Run the app with *params* overriding the registered defaults.

        When the tuned-config catalog holds a winner for (app, machine,
        nprocs) it is applied by default: tuned *parameter* knobs fill
        only the keys the caller left at their defaults (explicit params
        always win) and tuned runtime knobs (process grid, tile bytes,
        shm threshold) scope the run.  ``REPRO_TUNE=0`` disables the
        lookup; see :mod:`repro.tune.catalog`.
        """
        if isinstance(machine, str):
            machine = get_machine(machine)
        from repro.tune import catalog as tune_catalog

        merged = self.params_with(params)
        entry = tune_catalog.consult(
            self.name, machine.name, int(merged.get("nprocs", 0))
        )
        if entry is None:
            # No tuned entry (or consultation is off): suppress the
            # archetype-level lookup too — same key, same answer.
            with tune_catalog.disabled():
                return self.runner(merged, machine=machine, mode=mode, trace=trace)
        merged.update(
            {
                k: v
                for k, v in entry.config.params.items()
                if k in self.defaults and (params is None or k not in params)
            }
        )
        with tune_catalog.applying(entry.config):
            return self.runner(merged, machine=machine, mode=mode, trace=trace)


_REGISTRY: dict[str, AppSpec] = {}


def register(spec: AppSpec) -> AppSpec:
    """Add *spec* to the registry (idempotent for an identical re-register)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(f"app {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registration (tests use this to retract throwaway apps)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> AppSpec:
    """The :class:`AppSpec` registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown app {name!r}; choose from {names()}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered app names, registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[AppSpec, ...]:
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Registered workloads.  Runners derive every input from the params dict
# (reproducible data seeds), so equal params mean equal digests.


def _run_mergesort(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.sorting.mergesort import one_deep_mergesort

    rng = np.random.default_rng(params["seed"])
    data = rng.integers(0, np.iinfo(np.int64).max, size=params["n"])
    return one_deep_mergesort().run(
        params["nprocs"], data, mode=mode, machine=machine, trace=trace
    )


def _run_poisson(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.poisson import poisson_archetype

    return poisson_archetype().run(
        params["nprocs"],
        params["nx"],
        params["ny"],
        tolerance=params["tolerance"],
        max_iters=params["max_iters"],
        gather_solution=params["gather_solution"],
        overlap=params["overlap"],
        mode=mode,
        machine=machine,
        trace=trace,
    )


def _run_cfd(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.cfd import cfd_archetype

    return cfd_archetype().run(
        params["nprocs"],
        params["nx"],
        params["ny"],
        params["steps"],
        ic=params["ic"],
        cfl=params["cfl"],
        periodic=params["periodic"],
        gather=params["gather"],
        packed_exchange=params["packed_exchange"],
        cfl_interval=params["cfl_interval"],
        reactive=params["reactive"],
        overlap=params["overlap"],
        mode=mode,
        machine=machine,
        trace=trace,
    )


def _run_fdtd(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.fdtd import fdtd_archetype

    return fdtd_archetype().run(
        params["nprocs"],
        params["nx"],
        params["ny"],
        params["nz"],
        params["steps"],
        source_freq=params["source_freq"],
        courant=params["courant"],
        gather=params["gather"],
        overlap=params["overlap"],
        mode=mode,
        machine=machine,
        trace=trace,
    )


def _run_smog(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.smog import smog_archetype

    return smog_archetype().run(
        params["nprocs"],
        params["nx"],
        params["ny"],
        params["steps"],
        dt=params["dt"],
        diffusion=params["diffusion"],
        chem_substeps=params["chem_substeps"],
        gather=params["gather"],
        mode=mode,
        machine=machine,
        trace=trace,
    )


def _run_spectralflow(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.spectralflow import spectralflow_archetype

    return spectralflow_archetype().run(
        params["nprocs"],
        params["nr"],
        params["nz"],
        steps=params["steps"],
        dt=params["dt"],
        nu=params["nu"],
        gather=params["gather"],
        mode=mode,
        machine=machine,
        trace=trace,
    )


def _run_fft2d(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.fft2d import fft2d_archetype

    rng = np.random.default_rng(params["seed"])
    array = rng.standard_normal((params["rows"], params["cols"]))
    return fft2d_archetype().run(
        params["nprocs"], array, params["repeats"], mode=mode, machine=machine, trace=trace
    )


def _run_imagepipe(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.imagepipe import imagepipe_archetype, make_images

    pipeline = imagepipe_archetype(
        blur_workers=params["width"], window=params["window"]
    )
    images = make_images(
        params["items"], (params["rows"], params["cols"]), seed=params["seed"]
    )
    return pipeline.run(
        pipeline.nprocs, images, mode=mode, machine=machine, trace=trace
    )


def _run_knapfarm(params: dict, *, machine, mode, trace) -> RunResult:
    from repro.apps.knapfarm import knapsack_farm, random_instances

    pipeline = knapsack_farm(workers=params["workers"], window=params["window"])
    instances = random_instances(
        params["instances"], nitems=params["nitems"], seed=params["seed"]
    )
    return pipeline.run(
        pipeline.nprocs, instances, mode=mode, machine=machine, trace=trace
    )


# Performance-model adapters: map a params dict onto the closed forms of
# repro.bench.predict (imported lazily — the registry must not import
# repro.bench).  *proc_grid* is the process grid the run will use, or
# None for the default factorisation.


def _predict_mergesort(params: Mapping, machine, proc_grid=None) -> float:
    from repro.bench.predict import predict_onedeep_sort

    return predict_onedeep_sort(params["n"], params["nprocs"], machine)


def _predict_poisson(params: Mapping, machine, proc_grid=None) -> float:
    from repro.bench.predict import predict_poisson

    return predict_poisson(
        params["nx"],
        params["ny"],
        params["max_iters"],
        params["nprocs"],
        machine,
        proc_grid=proc_grid,
        overlap=params["overlap"],
    )


def _predict_cfd(params: Mapping, machine, proc_grid=None) -> float:
    from repro.bench.predict import predict_cfd

    return predict_cfd(
        params["nx"],
        params["ny"],
        params["steps"],
        params["nprocs"],
        machine,
        proc_grid=proc_grid,
        cfl_interval=params["cfl_interval"],
        overlap=params["overlap"],
    )


def _predict_smog(params: Mapping, machine, proc_grid=None) -> float:
    from repro.bench.predict import predict_smog

    return predict_smog(
        params["nx"],
        params["ny"],
        params["steps"],
        params["nprocs"],
        machine,
        chem_substeps=params["chem_substeps"],
        proc_grid=proc_grid,
    )


def _predict_fft2d(params: Mapping, machine, proc_grid=None) -> float:
    from repro.bench.predict import predict_fft2d

    return predict_fft2d(
        params["rows"], params["cols"], params["repeats"], params["nprocs"], machine
    )


register(
    AppSpec(
        name="mergesort",
        archetype="one-deep-dc",
        description="one-deep mergesort (divide and conquer)",
        runner=_run_mergesort,
        predict=_predict_mergesort,
        defaults={"nprocs": 4, "n": 4096, "seed": 0},
        verify_overrides={"n": 512},
    )
)
register(
    AppSpec(
        name="poisson",
        archetype="mesh-spectral",
        description="Jacobi Poisson solver (mesh; ghost exchanges per sweep)",
        runner=_run_poisson,
        predict=_predict_poisson,
        defaults={
            "nprocs": 4,
            "nx": 48,
            "ny": 48,
            "tolerance": 0.0,
            "max_iters": 8,
            "gather_solution": False,
            "overlap": True,
        },
        verify_overrides={"nx": 12, "ny": 12, "tolerance": 1e-3, "max_iters": 10_000},
    )
)
register(
    AppSpec(
        name="cfd",
        archetype="mesh-spectral",
        description="compressible-flow step loop (packed exchanges, CFL reductions)",
        runner=_run_cfd,
        predict=_predict_cfd,
        defaults={
            "nprocs": 4,
            "nx": 32,
            "ny": 32,
            "steps": 3,
            "ic": "shock",
            "cfl": 0.4,
            "periodic": False,
            "gather": False,
            "packed_exchange": True,
            "cfl_interval": 1,
            "reactive": False,
            "overlap": True,
        },
        verify_overrides={"nx": 12, "ny": 12, "steps": 2},
    )
)
register(
    AppSpec(
        name="fdtd",
        archetype="mesh-spectral",
        description="3-D FDTD electromagnetics (leapfrog E/H updates)",
        runner=_run_fdtd,
        defaults={
            "nprocs": 4,
            "nx": 12,
            "ny": 12,
            "nz": 12,
            "steps": 2,
            "source_freq": 0.05,
            "courant": 0.5,
            "gather": False,
            "overlap": True,
        },
        verify_overrides={"nx": 8, "ny": 8, "nz": 8, "steps": 2},
    )
)
register(
    AppSpec(
        name="smog",
        archetype="mesh-spectral",
        description="airshed photochemical smog model (fused transport/chemistry)",
        runner=_run_smog,
        predict=_predict_smog,
        defaults={
            "nprocs": 4,
            "nx": 24,
            "ny": 24,
            "steps": 6,
            "dt": 2e-3,
            "diffusion": 5e-3,
            "chem_substeps": 4,
            "gather": False,
        },
        verify_overrides={"nx": 12, "ny": 12, "steps": 3},
    )
)
register(
    AppSpec(
        name="spectralflow",
        archetype="mesh-spectral",
        description="axisymmetric spectral flow (FFT + tridiagonal solves + hoisted stencils)",
        runner=_run_spectralflow,
        defaults={
            "nprocs": 4,
            "nr": 32,
            "nz": 32,
            "steps": 4,
            "dt": 1e-3,
            "nu": 1e-3,
            "gather": False,
        },
        verify_overrides={"nr": 16, "nz": 16, "steps": 2},
    )
)
register(
    AppSpec(
        name="fft2d",
        archetype="mesh-spectral",
        description="distributed 2-D FFT (spectral; all-to-all transposes)",
        runner=_run_fft2d,
        predict=_predict_fft2d,
        defaults={"nprocs": 4, "rows": 64, "cols": 64, "repeats": 2, "seed": 0},
        verify_overrides={"rows": 16, "cols": 16, "repeats": 1},
    )
)
register(
    AppSpec(
        name="imagepipe",
        archetype="pipeline-farm",
        description="image pipeline with a farmed blur stage",
        runner=_run_imagepipe,
        defaults={
            "width": 2,
            "window": 2,
            "items": 6,
            "rows": 8,
            "cols": 8,
            "seed": 3,
        },
    )
)
register(
    AppSpec(
        name="knapfarm",
        archetype="pipeline-farm",
        description="knapsack-instance stream through a branch-and-bound farm",
        runner=_run_knapfarm,
        defaults={
            "workers": 2,
            "window": 2,
            "instances": 4,
            "nitems": 10,
            "seed": 7,
        },
    )
)
