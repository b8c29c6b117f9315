"""The autotuning loop: spaces, pruning, search, catalog, consultation."""

from __future__ import annotations

import json
import os

import pytest

from repro.apps import registry
from repro.comm.cart import (
    PROC_GRID_ENV,
    choose_proc_grid,
    override_for,
    parse_proc_grid,
    proc_grid_override,
)
from repro.core.meshspectral import MeshProgram
from repro.errors import DistributionError
from repro.machines.catalog import get_machine
from repro.serve.executor import execute
from repro.serve.protocol import JobRequest
from repro.tune import catalog
from repro.tune.catalog import TunedConfig, TunedEntry
from repro.tune.search import (
    PRUNE_SLACK,
    REJECTED,
    predict_candidate,
    prune,
    search,
)
from repro.tune.space import build_space, canonical_digest

TINY_POISSON = {"nx": 12, "ny": 12, "max_iters": 2}


def _entry(config: TunedConfig, signature: str = "sig") -> TunedEntry:
    return TunedEntry(
        config=config,
        predicted=1.0,
        measured=1.0,
        default_measured=2.0,
        digest="d",
        space_signature=signature,
    )


class TestProcGridOverride:
    def test_parse(self):
        assert parse_proc_grid("4x2") == (4, 2)
        assert parse_proc_grid("4,2,1") == (4, 2, 1)
        with pytest.raises(DistributionError):
            parse_proc_grid("4x")
        with pytest.raises(DistributionError):
            parse_proc_grid("0x4")

    def test_override_applies_only_when_it_matches(self, monkeypatch):
        monkeypatch.setenv(PROC_GRID_ENV, "4x1")
        assert override_for(4, 2) == (4, 1)
        assert override_for(8, 2) is None  # wrong rank count
        assert override_for(4, 3) is None  # wrong dimensionality

    def test_context_manager_restores(self):
        assert os.environ.get(PROC_GRID_ENV) is None
        with proc_grid_override((2, 2)):
            assert os.environ[PROC_GRID_ENV] == "2x2"
            with proc_grid_override((4, 1)):
                assert os.environ[PROC_GRID_ENV] == "4x1"
            assert os.environ[PROC_GRID_ENV] == "2x2"
        assert os.environ.get(PROC_GRID_ENV) is None

    def test_choose_proc_grid_cache_not_poisoned(self):
        default = choose_proc_grid(4, 2)
        with proc_grid_override((4, 1)):
            # The memoised factorisation is pure; the override lives
            # upstream of it.
            assert choose_proc_grid(4, 2) == default
        assert choose_proc_grid(4, 2) == default

    def test_archetype_run_explicit_grid_wins(self):
        program = MeshProgram(lambda mesh: mesh.grid((8, 8), ghost=1).cart.dims)
        assert program.run(4).values == [(2, 2)] * 4
        assert program.run(4, proc_grid=(4, 1)).values == [(4, 1)] * 4
        # Scope ends with the run: the next default run is untouched.
        assert program.run(4).values == [(2, 2)] * 4

    def test_rows_cols_distributions_unaffected(self):
        program = MeshProgram(
            lambda mesh: mesh.grid((8, 8), dist="rows", ghost=0).cart.dims
        )
        assert program.run(4, proc_grid=(2, 2)).values == [(4, 1)] * 4


class TestCatalogStore:
    def test_roundtrip(self):
        cfg = TunedConfig(proc_grid=(4, 1), tile_bytes=1 << 20, params={"overlap": False})
        catalog.store("poisson", "ibm-sp", 4, _entry(cfg))
        loaded = catalog.lookup("poisson", "ibm-sp", 4)
        assert loaded is not None
        assert loaded.config == cfg
        assert catalog.lookup("poisson", "ibm-sp", 8) is None

    def test_corrupt_file_reads_empty(self):
        path = catalog.entry_path("poisson", "ibm-sp")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert catalog.load("poisson", "ibm-sp") == {}

    def test_schema_mismatch_reads_empty(self):
        catalog.store("poisson", "ibm-sp", 4, _entry(TunedConfig()))
        path = catalog.entry_path("poisson", "ibm-sp")
        doc = json.loads(path.read_text())
        doc["schema"] = catalog.SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert catalog.load("poisson", "ibm-sp") == {}

    def test_enabled_env(self, monkeypatch):
        assert catalog.enabled()
        monkeypatch.setenv(catalog.TUNE_ENV, "0")
        assert not catalog.enabled()

    def test_applying_sets_and_restores_env(self):
        cfg = TunedConfig(proc_grid=(4, 1), tile_bytes=123456, shm_threshold=999)
        with catalog.applying(cfg):
            assert os.environ[PROC_GRID_ENV] == "4x1"
            assert os.environ["REPRO_KERNEL_TILE_BYTES"] == "123456"
            assert os.environ["REPRO_SHM_THRESHOLD"] == "999"
            assert catalog.active()
        assert os.environ.get(PROC_GRID_ENV) is None
        assert "REPRO_KERNEL_TILE_BYTES" not in os.environ
        assert not catalog.active()

    def test_consult_suppressed_while_active(self):
        catalog.store("poisson", "ibm-sp", 4, _entry(TunedConfig(proc_grid=(4, 1))))
        assert catalog.consult("poisson", "ibm-sp", 4) is not None
        with catalog.disabled():
            assert catalog.consult("poisson", "ibm-sp", 4) is None


class TestSpace:
    def test_default_first_and_unique(self):
        spec = registry.get("poisson")
        space = build_space(spec, spec.params_with(None))
        assert space[0].is_default()
        assert not any(c.is_default() for c in space[1:])
        dicts = [json.dumps(c.to_dict(), sort_keys=True) for c in space]
        assert len(dicts) == len(set(dicts))

    def test_mesh_space_matches_grid_ndim(self):
        spec = registry.get("fdtd")
        space = build_space(spec, spec.params_with(None))
        grids = {c.proc_grid for c in space if c.proc_grid}
        assert grids and all(len(g) == 3 for g in grids)

    def test_farm_space_varies_width_and_window(self):
        spec = registry.get("knapfarm")
        space = build_space(spec, spec.params_with(None))
        assert space[0].is_default()
        widths = {c.params.get("workers") for c in space[1:]}
        windows = {c.params.get("window") for c in space[1:]}
        assert len(widths) > 1 and len(windows) > 1

    def test_prune_keeps_default_and_unpredicted(self):
        keep = prune([10.0, None, 10.0 * PRUNE_SLACK * 1.01, 10.0])
        assert keep == [True, True, False, True]

    def test_prediction_tracks_measurement(self):
        spec = registry.get("poisson")
        params = spec.params_with(TINY_POISSON)
        machine = get_machine("cloud-25gbe")
        predicted = predict_candidate(spec, params, machine, TunedConfig())
        with catalog.disabled():
            measured = spec.run(params, machine=machine).elapsed
        assert predicted == pytest.approx(measured, rel=0.25)


class TestSearch:
    def test_winner_never_worse_than_default(self):
        outcome = search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        assert outcome.entry.measured <= outcome.entry.default_measured
        assert not outcome.cache_hit
        assert catalog.entry_path("poisson", "cloud-25gbe").is_file()

    def test_second_search_hits_catalog(self):
        search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        again = search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        assert again.cache_hit and again.reports == ()
        forced = search(
            "poisson", "cloud-25gbe", overrides=TINY_POISSON, force=True
        )
        assert not forced.cache_hit

    def test_changed_space_invalidates_hit(self):
        search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        different = search(
            "poisson", "cloud-25gbe", overrides={"nx": 16, "ny": 8, "max_iters": 2}
        )
        assert not different.cache_hit

    def test_anisotropic_domain_finds_real_win(self):
        # A 4x-wider-than-tall domain wants a 4x1 grid: less traffic and
        # fewer per-axis overheads than the square default factorisation.
        outcome = search(
            "poisson",
            "cloud-25gbe",
            overrides={"nx": 64, "ny": 16, "max_iters": 2},
        )
        assert outcome.entry.config.proc_grid == (4, 1)
        assert outcome.entry.measured < outcome.entry.default_measured

    def test_exhaustive_scores_pruner(self):
        outcome = search(
            "poisson",
            "cloud-25gbe",
            nprocs=8,
            overrides={"nx": 64, "ny": 16, "max_iters": 2},
            exhaustive=True,
        )
        counts = outcome.counts()
        assert counts["pruned"] > 0
        assert outcome.prune_accuracy == 1.0

    def test_fdtd_digest_contract_rejects_partition_sensitive_grids(self):
        # FDTD's energy is a SUM reduction whose partial sums depend on
        # the partition, so proc-grid candidates that change the local
        # summation order are measured, caught, and rejected.
        outcome = search(
            "fdtd", "numa-epyc", overrides={"nx": 8, "ny": 8, "nz": 8, "steps": 2}
        )
        rejected = [r for r in outcome.reports if r.status == REJECTED]
        assert rejected
        assert all(r.config.proc_grid is not None for r in rejected)
        # ... and the winner still reproduces the default digest.
        spec = registry.get("fdtd")
        with catalog.disabled():
            base = spec.run(
                {"nx": 8, "ny": 8, "nz": 8, "steps": 2}, machine="numa-epyc"
            )
        assert outcome.entry.digest == canonical_digest(spec, base)

    def test_parallel_measurement_ranks_identically(self):
        seq = search("poisson", "numa-epyc", overrides=TINY_POISSON)
        cfg_dir = os.environ["REPRO_TUNE_DIR"]
        os.environ["REPRO_TUNE_DIR"] = cfg_dir + "-par"
        try:
            par = search(
                "poisson", "numa-epyc", overrides=TINY_POISSON, mode="threads"
            )
        finally:
            os.environ["REPRO_TUNE_DIR"] = cfg_dir
        assert par.entry == seq.entry  # same winner, makespans, digest


class TestConsultation:
    def _store_grid_entry(self, app="poisson", machine="ibm-sp", grid=(4, 1)):
        spec = registry.get(app)
        params = spec.params_with(TINY_POISSON)
        machine_model = get_machine(machine)
        with catalog.applying(TunedConfig(proc_grid=grid)):
            tuned = spec.run(params, machine=machine_model)
        with catalog.disabled():
            default = spec.run(params, machine=machine_model)
        entry = TunedEntry(
            config=TunedConfig(proc_grid=grid),
            predicted=None,
            measured=tuned.elapsed,
            default_measured=default.elapsed,
            digest=canonical_digest(spec, tuned),
            space_signature="sig",
        )
        catalog.store(app, machine, params["nprocs"], entry)
        return params, tuned, default

    def test_registry_run_applies_tuned_grid(self):
        params, tuned, default = self._store_grid_entry()
        assert tuned.times != default.times  # the knob is observable
        consulted = registry.get("poisson").run(params, machine="ibm-sp")
        assert consulted.times == tuned.times

    def test_archetype_run_applies_tuned_grid(self):
        params, tuned, _ = self._store_grid_entry()
        from repro.apps.poisson import poisson_archetype

        result = poisson_archetype().run(
            params["nprocs"],
            params["nx"],
            params["ny"],
            tolerance=params["tolerance"],
            max_iters=params["max_iters"],
            gather_solution=params["gather_solution"],
            machine=get_machine("ibm-sp"),
        )
        assert result.times == tuned.times

    def test_explicit_proc_grid_beats_catalog(self):
        params, tuned, default = self._store_grid_entry(grid=(4, 1))
        from repro.apps.poisson import poisson_archetype

        result = poisson_archetype().run(
            params["nprocs"],
            params["nx"],
            params["ny"],
            tolerance=params["tolerance"],
            max_iters=params["max_iters"],
            gather_solution=params["gather_solution"],
            machine=get_machine("ibm-sp"),
            proc_grid=(2, 2),
        )
        assert result.times == default.times

    def test_explicit_params_beat_tuned_params(self):
        spec = registry.get("poisson")
        params = spec.params_with(TINY_POISSON)
        machine = get_machine("ibm-sp")
        entry = TunedEntry(
            config=TunedConfig(params={"overlap": False}),
            predicted=None,
            measured=1.0,
            default_measured=1.0,
            digest="d",
            space_signature="sig",
        )
        catalog.store("poisson", "ibm-sp", params["nprocs"], entry)
        with catalog.disabled():
            blocking = spec.run(dict(params, overlap=False), machine=machine)
            overlapped = spec.run(dict(params, overlap=True), machine=machine)
        assert blocking.times != overlapped.times
        # Caller silent on overlap: the tuned value (False) applies.
        implicit = spec.run(TINY_POISSON, machine=machine)
        assert implicit.times == blocking.times
        # Caller explicit: the tuned value must not override it.
        explicit = spec.run(dict(TINY_POISSON, overlap=True), machine=machine)
        assert explicit.times == overlapped.times

    def test_repro_tune_zero_disables(self, monkeypatch):
        params, tuned, default = self._store_grid_entry()
        monkeypatch.setenv(catalog.TUNE_ENV, "0")
        result = registry.get("poisson").run(params, machine="ibm-sp")
        assert result.times == default.times


class TestServeIntegration:
    def test_validated_pins_empty_without_catalog(self):
        req = JobRequest(app="poisson", params=TINY_POISSON).validated()
        assert req.tuned == {}

    def test_validated_pins_catalog_entry_and_cache_key_changes(self):
        base = JobRequest(app="poisson", params=TINY_POISSON, machine="ibm-sp")
        untuned_key = base.validated().cache_key()
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        pinned = base.validated()
        assert pinned.tuned["proc_grid"] == [4, 1]
        assert pinned.cache_key() != untuned_key
        # Re-validating an already-pinned request is a no-op.
        assert pinned.validated().tuned == pinned.tuned

    def test_explicitly_untuned_request_ignores_catalog(self):
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        req = JobRequest(
            app="poisson", params=TINY_POISSON, machine="ibm-sp", tuned={}
        ).validated()
        assert req.tuned == {}

    def test_executor_applies_exactly_the_pinned_config(self):
        base = JobRequest(app="poisson", params=TINY_POISSON, machine="ibm-sp")
        untuned = execute(base.validated(), trace=False)
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        pinned = base.validated()
        tuned = execute(pinned, trace=False)
        assert tuned.times != untuned.times
        # The worker's local catalog must not leak into an untuned-pinned
        # request even when an entry exists.
        repinned = execute(
            JobRequest(
                app="poisson", params=TINY_POISSON, machine="ibm-sp", tuned={}
            ).validated(),
            trace=False,
        )
        assert repinned.times == untuned.times
        assert repinned.digest == untuned.digest
