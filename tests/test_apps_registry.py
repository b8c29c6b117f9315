"""The shared app registry: one source of truth for named workloads."""

import pytest

from repro.apps import registry
from repro.apps.registry import AppSpec
from repro.errors import ReproError
from repro.machines.catalog import get_machine
from repro.verify.digest import value_digest

EXPECTED_APPS = {"mergesort", "poisson", "fft2d", "imagepipe", "knapfarm"}


def _digest(result):
    return value_digest([result.times, result.values])


class TestRegistryContents:
    def test_standard_apps_registered(self):
        assert EXPECTED_APPS <= set(registry.names())

    def test_specs_cover_names(self):
        assert tuple(s.name for s in registry.specs()) == registry.names()

    def test_unknown_app_raises_with_choices(self):
        with pytest.raises(ReproError, match="unknown app"):
            registry.get("no-such-app")

    def test_defaults_are_jsonable_scalars(self):
        # The serve wire protocol sends params as JSON; every default
        # must round-trip as a plain scalar.
        for spec in registry.specs():
            for key, value in spec.defaults.items():
                assert isinstance(value, (int, float, bool, str)), (
                    spec.name,
                    key,
                )

    def test_verify_overrides_are_known_params(self):
        for spec in registry.specs():
            assert set(spec.verify_overrides) <= set(spec.defaults), spec.name


class TestParams:
    def test_params_with_merges_over_defaults(self):
        spec = registry.get("mergesort")
        params = spec.params_with({"n": 128})
        assert params["n"] == 128
        assert params["nprocs"] == spec.defaults["nprocs"]

    def test_params_with_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="no parameter"):
            registry.get("poisson").params_with({"bogus": 1})

    def test_params_with_none_is_defaults(self):
        spec = registry.get("fft2d")
        assert spec.params_with(None) == dict(spec.defaults)


class TestRuns:
    def test_run_accepts_machine_name(self):
        a = registry.get("mergesort").run({"n": 256}, machine="ibm-sp")
        b = registry.get("mergesort").run({"n": 256}, machine="ibm-sp")
        assert _digest(a) == _digest(b)

    def test_equal_params_equal_digests(self):
        # The determinism contract the serve cache keys on: explicit
        # defaults and omitted defaults are the same run.
        spec = registry.get("knapfarm")
        explicit = spec.run(dict(spec.defaults), machine="ibm-sp")
        implicit = spec.run(machine="ibm-sp")
        assert _digest(explicit) == _digest(implicit)

    def test_seed_changes_data(self):
        spec = registry.get("mergesort")
        a = spec.run({"n": 256, "seed": 0})
        b = spec.run({"n": 256, "seed": 1})
        assert _digest(a) != _digest(b)

    def test_pipeline_apps_derive_nprocs(self):
        run = registry.get("imagepipe").run(machine="ibm-sp")
        assert len(run.times) > 1


class TestRegistration:
    def test_reregister_identical_is_idempotent(self):
        spec = registry.get("mergesort")
        assert registry.register(spec) is spec

    def test_conflicting_register_raises(self):
        spec = registry.get("mergesort")
        clone = AppSpec(
            name=spec.name,
            archetype=spec.archetype,
            description="different",
            runner=spec.runner,
            defaults=spec.defaults,
        )
        with pytest.raises(ReproError, match="already registered"):
            registry.register(clone)

    def test_register_unregister_roundtrip(self):
        spec = AppSpec(
            name="throwaway-test-app",
            archetype="test",
            description="",
            runner=lambda params, *, machine, mode, trace: None,
            defaults={},
        )
        registry.register(spec)
        try:
            assert registry.get("throwaway-test-app") is spec
        finally:
            registry.unregister("throwaway-test-app")
        with pytest.raises(ReproError):
            registry.get("throwaway-test-app")


class TestSharedConsumers:
    def test_conformance_programs_resolve_registry_apps(self):
        from repro.verify.conformance import PROGRAMS

        for program in PROGRAMS.values():
            assert program.archetype in {
                registry.get(n).archetype for n in registry.names()
            }

    def test_lever_apps_resolve_in_registry(self):
        from repro.bench.ab import LEVERS

        for lever in LEVERS.values():
            for app, (machine, overrides) in lever.rows.items():
                get_machine(machine)
                # the exact params Lever.run passes (unknown keys raise)
                registry.get(app).params_with({**overrides, "nprocs": lever.nprocs})
