"""Analytic predictions vs simulated virtual times.

The closed-form archetype models of :mod:`repro.bench.predict` must
track the simulator (which executes the real message pattern) across
machines and process counts.  The tolerance covers what the closed
forms deliberately ignore: startup skew, wait times, and uneven block
sizes.
"""

import numpy as np
import pytest

from repro.bench.predict import (
    allreduce_time,
    alltoall_time,
    predict_cfd,
    predict_fft2d,
    predict_onedeep_sort,
    predict_poisson,
    predict_smog,
    ring_allgather_time,
)
from repro.apps import registry
from repro.machines.catalog import CRAY_T3D, ETHERNET_SUNS, IBM_SP, INTEL_DELTA
from repro.tune import catalog

TOLERANCE = 0.45  # relative error bound for whole-program predictions


def _agree(predicted: float, simulated: float, tol: float = TOLERANCE) -> bool:
    return abs(predicted - simulated) <= tol * simulated


class TestCollectiveTerms:
    def test_zero_for_single_rank(self):
        assert ring_allgather_time(IBM_SP, 1, 100) == 0.0
        assert alltoall_time(IBM_SP, 1, 100) == 0.0
        assert allreduce_time(IBM_SP, 1) == 0.0

    def test_allreduce_matches_simulation(self):
        from repro import spmd_run
        from repro.comm.reductions import SUM

        for machine in (IBM_SP, ETHERNET_SUNS):
            for p in (2, 4, 8, 13):
                res = spmd_run(p, lambda comm: comm.allreduce(1.0, SUM), machine=machine)
                assert _agree(allreduce_time(machine, p), res.elapsed, tol=0.35), (
                    machine.name,
                    p,
                    allreduce_time(machine, p),
                    res.elapsed,
                )

    def test_alltoall_matches_simulation(self):
        from repro import spmd_run

        nbytes = 1000
        for machine in (INTEL_DELTA, CRAY_T3D):
            for p in (2, 4, 8):
                def body(comm):
                    comm.alltoall([np.zeros(nbytes // 8)] * comm.size)

                res = spmd_run(p, body, machine=machine)
                assert _agree(
                    alltoall_time(machine, p, nbytes + 16), res.elapsed, tol=0.35
                ), (machine.name, p)


class TestProgramPredictions:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    @pytest.mark.parametrize("machine", [INTEL_DELTA, IBM_SP], ids=lambda m: m.name)
    def test_onedeep_sort(self, p, machine, rng):
        from repro.apps.sorting import one_deep_mergesort

        n = 1 << 16
        data = rng.integers(0, 2**40, size=n)
        simulated = one_deep_mergesort().run(p, data, machine=machine).elapsed
        predicted = predict_onedeep_sort(n, p, machine)
        assert _agree(predicted, simulated), (p, machine.name, predicted, simulated)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_poisson(self, p):
        from repro.apps.poisson import poisson_archetype

        nx = ny = 128
        iters = 5
        simulated = (
            poisson_archetype()
            .run(
                p,
                nx,
                ny,
                machine=IBM_SP,
                tolerance=0.0,
                max_iters=iters,
                gather_solution=False,
            )
            .elapsed
        )
        predicted = predict_poisson(nx, ny, iters, p, IBM_SP)
        assert _agree(predicted, simulated), (p, predicted, simulated)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_fft2d(self, p, rng):
        from repro.apps.fft2d import fft2d_archetype

        shape = (64, 64)
        data = rng.normal(size=shape).astype(complex)
        simulated = fft2d_archetype().run(p, data, 2, machine=IBM_SP).elapsed
        predicted = predict_fft2d(shape[0], shape[1], 2, p, IBM_SP)
        assert _agree(predicted, simulated), (p, predicted, simulated)

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("machine", [INTEL_DELTA, IBM_SP], ids=lambda m: m.name)
    def test_smog(self, p, machine):
        """Fused-op accounting: the model charges the packed 3-species
        slab once per step and the transport/chemistry flops per cell —
        the same plan the kernel layer executes in either fusion mode."""
        from repro.apps import registry

        nx = ny = 48
        steps = 5
        simulated = registry.get("smog").run(
            {"nprocs": p, "nx": nx, "ny": ny, "steps": steps}, machine=machine
        ).elapsed
        predicted = predict_smog(nx, ny, steps, p, machine)
        assert _agree(predicted, simulated), (p, machine.name, predicted, simulated)

    @pytest.mark.parametrize("p", [4, 16])
    def test_cfd(self, p):
        from repro.apps.cfd import cfd_archetype

        n, steps = 96, 3
        simulated = (
            cfd_archetype()
            .run(p, n, n, steps, ic="smooth", machine=INTEL_DELTA, gather=False)
            .elapsed
        )
        predicted = predict_cfd(n, n, steps, p, INTEL_DELTA)
        assert _agree(predicted, simulated), (p, predicted, simulated)

    def test_predictions_reproduce_figure_shapes(self, rng):
        """The analytic model alone reproduces Figure 6's qualitative
        story: near-linear one-deep speedup."""
        n = 1 << 20
        t_seq = predict_onedeep_sort(n, 1, INTEL_DELTA)
        s32 = t_seq / predict_onedeep_sort(n, 32, INTEL_DELTA)
        s4 = t_seq / predict_onedeep_sort(n, 4, INTEL_DELTA)
        assert s32 > 4 * s4 * 0.5
        assert s32 > 15


_PREDICTED = [spec for spec in registry.specs() if spec.predict is not None]


class TestRegistryPredictions:
    """Every ``AppSpec.predict`` adapter maps the app's parameters onto
    its closed form correctly: at registry defaults the prediction
    tracks the simulated makespan."""

    def test_predicted_apps(self):
        assert {spec.name for spec in _PREDICTED} == {
            "poisson",
            "cfd",
            "smog",
            "fft2d",
            "mergesort",
        }

    @pytest.mark.parametrize("machine", [IBM_SP, INTEL_DELTA], ids=lambda m: m.name)
    @pytest.mark.parametrize("spec", _PREDICTED, ids=lambda s: s.name)
    def test_default_run_agrees(self, spec, machine):
        params = spec.params_with(None)
        with catalog.disabled():
            simulated = spec.run(params, machine=machine).elapsed
        predicted = spec.predict(params, machine)
        assert _agree(predicted, simulated), (spec.name, predicted, simulated)
