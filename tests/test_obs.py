"""The observability subsystem: metrics, critical path, Chrome export, CLI."""

import json

import pytest

from repro import spmd_run
from repro.comm.reductions import SUM
from repro.machines.catalog import IBM_SP
from repro.machines.model import MachineModel
from repro.obs.chrome import (
    ChromeTraceError,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.critical import (
    comm_matrix,
    critical_path,
    pair_messages,
    rank_activity,
    render_comm_matrix,
    trace_makespan,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
from repro.trace.analysis import summarize

TOY = MachineModel("toy", alpha=1e-3, beta=1e-6, flop_time=1e-6)


# -- metrics ------------------------------------------------------------------
class TestInstruments:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(MetricsError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7.0

    def test_histogram_buckets_observations(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.mean == pytest.approx(555.5 / 4)
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(MetricsError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(MetricsError):
            Histogram("h", buckets=(3.0, 2.0))
        with pytest.raises(MetricsError):
            Histogram("h", buckets=())

    def test_default_bucket_sets_are_valid(self):
        # Regression: default bucket tuples must pass their own validation.
        assert Histogram("t").buckets  # TIME_BUCKETS default
        assert Histogram("c", buckets=COUNT_BUCKETS).buckets

    def test_histogram_snapshot_names_overflow_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["buckets"]["+inf"] == 1
        assert snap["min"] == snap["max"] == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError):
            reg.gauge("x")

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["n"]["value"] == 3
        assert snap["h"]["count"] == 1
        text = reg.render()
        assert "n: 3" in text
        assert "h: count=1" in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.names() == []
        assert reg.get("x") is None

    def test_scoped_registry_isolates_and_restores(self):
        outer = get_registry()
        with scoped_registry() as inner:
            assert get_registry() is inner
            get_registry().counter("only.inner").inc()
        assert get_registry() is outer
        assert outer.get("only.inner") is None

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


class TestMergeSnapshot:
    def test_counters_add(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc(2)
        other = MetricsRegistry()
        other.counter("jobs").inc(3)
        reg.merge_snapshot(other.snapshot())
        assert reg.counter("jobs").value == 5

    def test_gauges_take_last_write(self):
        # A gauge is an instantaneous reading: merging must adopt the
        # snapshot's value, not sum it with the local one.
        reg = MetricsRegistry()
        reg.gauge("depth").set(7)
        other = MetricsRegistry()
        other.gauge("depth").set(2)
        reg.merge_snapshot(other.snapshot())
        assert reg.gauge("depth").value == 2

    def test_histograms_merge_overlapping_buckets(self):
        bounds = (1.0, 10.0, 100.0)
        reg = MetricsRegistry()
        local = reg.histogram("lat", buckets=bounds)
        for v in (0.5, 5.0):
            local.observe(v)
        other = MetricsRegistry()
        remote = other.histogram("lat", buckets=bounds)
        for v in (5.0, 50.0, 500.0):
            remote.observe(v)
        reg.merge_snapshot(other.snapshot())
        merged = reg.histogram("lat", buckets=bounds)
        # Per-bucket counts add where the streams overlap (the 5.0s
        # share the <=10 bucket) and min/max/sum/count recombine.
        assert merged.bucket_counts == [1, 2, 1, 1]
        assert merged.count == 5
        assert merged.sum == pytest.approx(560.5)
        snap = merged.snapshot()
        assert snap["min"] == 0.5
        assert snap["max"] == 500.0

    def test_merge_creates_missing_instruments(self):
        other = MetricsRegistry()
        other.counter("c").inc(1)
        other.gauge("g").set(4)
        other.histogram("h", buckets=(1.0,)).observe(2.0)
        reg = MetricsRegistry()
        reg.merge_snapshot(other.snapshot())
        assert reg.counter("c").value == 1
        assert reg.gauge("g").value == 4
        assert reg.histogram("h", buckets=(1.0,)).count == 1

    def test_merge_rejects_bucket_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        other = MetricsRegistry()
        other.histogram("h", buckets=(5.0,)).observe(1.0)
        with pytest.raises(MetricsError):
            reg.merge_snapshot(other.snapshot())

    def test_merge_rejects_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("x")
        other = MetricsRegistry()
        other.gauge("x").set(1)
        with pytest.raises(MetricsError):
            reg.merge_snapshot(other.snapshot())


class TestRuntimeInstrumentation:
    def test_scheduler_and_mailbox_counters_populated(self):
        def body(comm):
            return comm.allreduce(comm.rank, SUM)

        with scoped_registry() as reg:
            spmd_run(4, body, machine=TOY)
            assert reg.counter("runtime.scheduler.steps").value > 0
            assert reg.counter("runtime.scheduler.blocks").value > 0
            enqueued = reg.counter("runtime.mailbox.enqueued").value
            matched = reg.counter("runtime.mailbox.matched").value
            assert enqueued == matched > 0
            # Messages bound directly to a posted receive (the nonblocking
            # layer) never enter the pending queue, so the depth histogram
            # observes at most one sample per enqueued message.
            assert reg.histogram("runtime.mailbox.depth").count <= enqueued
            assert reg.counter("runtime.mailbox.posted").value > 0
            assert reg.counter("comm.requests.posted").value > 0
            assert (
                reg.counter("comm.requests.completed").value
                == reg.counter("comm.requests.posted").value
            )

    def test_deadlock_counter(self):
        from repro.errors import DeadlockError

        def body(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

        with scoped_registry() as reg:
            with pytest.raises(DeadlockError):
                spmd_run(2, body)
            assert reg.counter("runtime.scheduler.deadlocks").value == 1

    def test_reduction_op_counters(self):
        with scoped_registry() as reg:
            spmd_run(4, lambda comm: comm.allreduce(1.0, SUM), machine=TOY)
            total = reg.counter("comm.reductions.applies").value
            assert total > 0
            assert reg.counter("comm.reductions.applies.sum").value == total

    def test_onedeep_phase_metrics(self):
        import numpy as np

        from repro.apps.sorting.mergesort import one_deep_mergesort

        data = np.random.default_rng(0).integers(0, 10**6, size=512)
        with scoped_registry() as reg:
            one_deep_mergesort().run(4, data, machine=TOY)
            assert reg.counter("core.onedeep.phase.solve").value == 4
            assert reg.counter("core.onedeep.phase.merge").value == 4
            hist = reg.histogram("core.onedeep.phase_seconds")
            assert hist.count == 8
            assert hist.sum > 0

    def test_mesh_op_and_redistribute_metrics(self):
        import numpy as np

        from repro.apps.fft2d import fft2d_archetype

        arr = np.random.default_rng(0).standard_normal((16, 16))
        with scoped_registry() as reg:
            fft2d_archetype().run(4, arr, 1, machine=TOY)
            assert reg.counter("core.mesh.row_op").value == 4
            assert reg.counter("core.mesh.col_op").value == 4
            assert reg.histogram("core.mesh.op_seconds").count > 0
            assert reg.counter("comm.redistribute.calls").value > 0
            assert reg.counter("comm.redistribute.bytes").value > 0
            assert reg.histogram("comm.redistribute.parcels").count > 0
            assert reg.histogram("comm.redistribute.virtual_seconds").count > 0


# -- critical path ------------------------------------------------------------
def _traced(nprocs, body):
    return spmd_run(nprocs, body, machine=TOY, trace=True)


class TestMessagePairing:
    def test_pairs_by_channel_fifo(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=1)
                comm.send(1, "b", tag=1)
            elif comm.rank == 1:
                comm.recv(source=0, tag=1)
                comm.recv(source=0, tag=1)

        pairs = pair_messages(_traced(2, body).tracer)
        assert len(pairs) == 2
        assert [p.send_index for p in pairs] == [0, 1]
        assert all(p.send_rank == 0 and p.recv_rank == 1 for p in pairs)

    def test_wait_positive_when_receiver_early(self):
        def body(comm):
            if comm.rank == 0:
                comm.charge(10_000)  # late sender
                comm.send(1, "x", tag=1)
            else:
                comm.recv(source=0, tag=1)

        (pair,) = pair_messages(_traced(2, body).tracer)
        assert pair.wait > 0
        assert pair.wait <= pair.recv.duration


class TestCriticalPath:
    def test_length_equals_makespan_poisson(self):
        from repro.apps.poisson import poisson_archetype

        res = poisson_archetype().run(
            4, 24, 24, tolerance=0.0, max_iters=4,
            gather_solution=False, machine=IBM_SP, trace=True,
        )
        report = critical_path(res.tracer)
        assert report.length == pytest.approx(res.elapsed, rel=1e-12)
        assert report.makespan == pytest.approx(res.elapsed, rel=1e-12)

    def test_length_equals_makespan_mergesort(self):
        import numpy as np

        from repro.apps.sorting.mergesort import one_deep_mergesort

        data = np.random.default_rng(0).integers(0, 10**6, size=1024)
        res = one_deep_mergesort().run(4, data, machine=IBM_SP, trace=True)
        report = critical_path(res.tracer)
        assert report.length == pytest.approx(res.elapsed, rel=1e-12)

    def test_length_equals_makespan_fft2d(self):
        import numpy as np

        from repro.apps.fft2d import fft2d_archetype

        arr = np.random.default_rng(1).standard_normal((16, 16))
        res = fft2d_archetype().run(4, arr, 1, machine=IBM_SP, trace=True)
        report = critical_path(res.tracer)
        assert report.length == pytest.approx(res.elapsed, rel=1e-12)

    def test_segments_tile_the_timeline(self):
        def body(comm):
            comm.charge(1000 * (comm.rank + 1))
            comm.allreduce(comm.rank, SUM)

        report = critical_path(_traced(3, body).tracer)
        assert report.segments[0].start == 0.0
        assert report.segments[-1].end == pytest.approx(report.makespan)
        for a, b in zip(report.segments, report.segments[1:]):
            assert b.start == pytest.approx(a.end)

    def test_path_crosses_ranks_through_binding_send(self):
        def body(comm):
            if comm.rank == 0:
                comm.charge(50_000)  # the dominant chain starts here
                comm.send(1, "x", tag=1)
            else:
                comm.recv(source=0, tag=1)

        report = critical_path(_traced(2, body).tracer)
        assert report.rank_switches == 1
        assert {seg.rank for seg in report.segments} == {0, 1}
        assert report.length == pytest.approx(report.makespan)

    def test_breakdown_sums_to_length(self):
        def body(comm):
            comm.charge(500)
            comm.allreduce(1.0, SUM)

        report = critical_path(_traced(4, body).tracer)
        assert sum(report.breakdown.values()) == pytest.approx(report.length)
        assert "compute" in report.breakdown

    def test_render_mentions_makespan(self):
        def body(comm):
            comm.charge(100)

        report = critical_path(_traced(1, body).tracer)
        text = report.render()
        assert "critical path" in text
        assert "makespan" in text

    def test_empty_trace(self):
        res = spmd_run(2, lambda comm: None, trace=True)
        report = critical_path(res.tracer)
        assert report.makespan == 0.0
        assert report.segments == []
        assert trace_makespan(res.tracer) == 0.0


class TestRankActivity:
    def test_activity_tiles_makespan(self):
        def body(comm):
            if comm.rank == 0:
                comm.charge(20_000)
                comm.send(1, b"x" * 128, tag=1)
            else:
                comm.recv(source=0, tag=1)

        res = _traced(2, body)
        for act in rank_activity(res.tracer):
            total = act.compute + act.send + act.recv + act.idle
            assert total == pytest.approx(res.elapsed)

    def test_wait_attributed_to_late_sender(self):
        def body(comm):
            if comm.rank == 0:
                comm.charge(20_000)
                comm.send(1, "x", tag=1)
            else:
                comm.recv(source=0, tag=1)

        acts = rank_activity(_traced(2, body).tracer)
        assert acts[1].wait > 0
        assert acts[0].wait == 0.0
        assert acts[1].busy < acts[1].compute + acts[1].send + acts[1].recv


class TestCommMatrix:
    def test_counts_and_bytes(self):
        def body(comm):
            comm.send((comm.rank + 1) % comm.size, b"12345678", tag=1)
            comm.recv(tag=1)

        tracer = _traced(3, body).tracer
        messages, volume = comm_matrix(tracer)
        summary = summarize(tracer)
        assert sum(map(sum, messages)) == summary.total_messages
        assert sum(map(sum, volume)) == summary.total_bytes
        assert messages[0][1] == 1 and messages[0][2] == 0

    def test_render(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, "x", tag=1)
            elif comm.rank == 1:
                comm.recv(source=0, tag=1)

        text = render_comm_matrix(_traced(2, body).tracer)
        assert "src\\dst" in text
        assert "messages/bytes" in text


# -- Chrome trace export ------------------------------------------------------
class TestChromeTrace:
    def _poisson_tracer(self):
        from repro.apps.poisson import poisson_archetype

        return poisson_archetype().run(
            4, 16, 16, tolerance=0.0, max_iters=2,
            gather_solution=False, machine=IBM_SP, trace=True,
        ).tracer

    def test_structure(self):
        tracer = self._poisson_tracer()
        data = chrome_trace(tracer)
        assert isinstance(data["traceEvents"], list)
        phases = {ev["ph"] for ev in data["traceEvents"]}
        assert {"M", "X", "s", "f"} <= phases
        tids = {ev["tid"] for ev in data["traceEvents"] if ev["ph"] == "X"}
        assert tids == {0, 1, 2, 3}
        assert data["otherData"]["nprocs"] == 4

    def test_flow_arrows_match_message_pairs(self):
        tracer = self._poisson_tracer()
        data = chrome_trace(tracer)
        starts = [ev for ev in data["traceEvents"] if ev["ph"] == "s"]
        finishes = [ev for ev in data["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(finishes) == len(pair_messages(tracer))

    def test_export_validates_and_round_trips(self, tmp_path):
        tracer = self._poisson_tracer()
        path = tmp_path / "trace.json"
        data = export_chrome_trace(tracer, path)
        assert validate_chrome_trace(data) == []
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert len(loaded["traceEvents"]) == len(data["traceEvents"])

    def test_idle_slices_fill_to_makespan(self):
        def body(comm):
            comm.charge(1000.0 if comm.rank == 0 else 100_000.0)

        tracer = _traced(2, body).tracer
        data = chrome_trace(tracer)
        idle = [
            ev
            for ev in data["traceEvents"]
            if ev["ph"] == "X" and ev["cat"] == "idle" and ev["tid"] == 0
        ]
        assert idle, "fast rank should get a trailing idle slice"
        makespan_us = trace_makespan(tracer) * 1e6
        assert idle[-1]["ts"] + idle[-1]["dur"] == pytest.approx(makespan_us)


class TestChromeValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"notTraceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"ph": "Z", "pid": 0, "tid": 0}]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)

    def test_rejects_missing_keys_and_negative_dur(self):
        missing = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "n"}]}
        assert any("missing keys" in p for p in validate_chrome_trace(missing))
        negative = {
            "traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "name": "n", "cat": "c",
                 "ts": 0.0, "dur": -1.0}
            ]
        }
        assert any("non-negative" in p for p in validate_chrome_trace(negative))

    def test_rejects_unpaired_and_backwards_flows(self):
        def flow(ph, ts):
            return {"ph": ph, "pid": 0, "tid": 0, "name": "m", "cat": "msg",
                    "id": 1, "ts": ts}

        unpaired = {"traceEvents": [flow("s", 0.0)]}
        assert any("no matching finish" in p for p in validate_chrome_trace(unpaired))
        backwards = {"traceEvents": [flow("s", 5.0), flow("f", 1.0)]}
        assert any("before it starts" in p for p in validate_chrome_trace(backwards))

    def test_export_refuses_invalid_document(self, tmp_path, monkeypatch):
        import repro.obs.chrome as chrome_mod

        def broken(tracer):
            return {"traceEvents": [{"ph": "Z"}]}

        monkeypatch.setattr(chrome_mod, "chrome_trace", broken)
        res = spmd_run(1, lambda comm: comm.charge(1), trace=True)
        target = tmp_path / "bad.json"
        with pytest.raises(ChromeTraceError):
            chrome_mod.export_chrome_trace(res.tracer, target)
        assert not target.exists()


# -- CLI ----------------------------------------------------------------------
class TestCli:
    def test_default_is_summary(self, capsys):
        from repro.obs.__main__ import main

        assert main(["poisson", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "virtual makespan" in out
        assert "metrics:" in out
        assert "runtime.scheduler.steps" in out

    def test_critical_path_flag(self, capsys):
        from repro.obs.__main__ import main

        assert main(["mergesort", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-rank activity" in out

    def test_compare_model_flag(self, capsys):
        from repro.obs.__main__ import main

        assert main(["fft2d", "--compare-model"]) == 0
        out = capsys.readouterr().out
        assert "model prediction" in out
        assert "measured / predicted" in out

    def test_export_chrome_writes_valid_json(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        target = tmp_path / "out.json"
        assert main(["poisson", "--export-chrome", str(target)]) == 0
        assert validate_chrome_trace(json.loads(target.read_text())) == []

    def test_smoke_passes(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_rejects_bad_procs(self):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit):
            main(["poisson", "--procs", "0"])

    def test_rejects_unknown_machine(self):
        from repro.errors import ReproError
        from repro.obs.__main__ import main

        with pytest.raises(ReproError):
            main(["poisson", "--machine", "nonesuch"])

    def test_runs_any_registry_app(self, capsys):
        from repro.obs.__main__ import main

        assert main(["imagepipe"]) == 0
        assert "imagepipe" in capsys.readouterr().out

    def test_rejects_procs_for_app_without_nprocs(self, capsys):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit):
            main(["imagepipe", "--procs", "4"])
        assert "--procs" in capsys.readouterr().err

    def test_rejects_compare_model_without_predict(self, capsys):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit):
            main(["spectralflow", "--compare-model"])
        err = capsys.readouterr().err
        assert "no closed-form model" in err
        assert "poisson" in err and "mergesort" in err
