"""The three simulator workloads: rounds of in-process app runs.

A *round* runs every case of the workload once, in a fixed order, through
:mod:`repro.apps.registry` on the default (deterministic) backend.  Each
case run is checked against its reference: the run's
:func:`repro.serve.executor.result_digest` and its virtual makespan.  The
program's own obs counters, read through ``scoped_registry`` per round,
must repeat exactly from round to round and from run to run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import common
import layers

WORKLOADS = ("mesh-halo", "bulk-numeric", "farm-stream")


def cases_for(workload: str, seed: int) -> list[tuple[str, dict, str]]:
    """The cases of one round: (app, params, machine).  Data seeds come from
    the benchmark's seed; poisson and smog take none (their registry
    entries build fixed inputs), so mesh-halo is the same for every seed."""
    if workload == "mesh-halo":
        return [
            ("poisson", {"nprocs": 16, "nx": 128, "ny": 128, "tolerance": 0.0,
                         "max_iters": 20}, "ibm-sp"),
            ("smog", {"nprocs": 16, "nx": 128, "ny": 128, "steps": 6}, "ibm-sp"),
        ]
    if workload == "bulk-numeric":
        return [
            ("fft2d", {"nprocs": 8, "rows": 512, "cols": 512, "repeats": 1,
                       "seed": seed}, "ibm-sp"),
            ("mergesort", {"nprocs": 8, "n": 2**20, "seed": seed}, "intel-delta"),
        ]
    if workload == "farm-stream":
        return [
            ("imagepipe", {"width": 4, "items": 64, "rows": 32, "cols": 32,
                           "seed": seed}, "ibm-sp"),
            ("knapfarm", {"workers": 4, "instances": 64, "nitems": 16,
                          "seed": seed}, "ibm-sp"),
        ]
    raise ValueError(f"unknown simulator workload {workload!r}")


#: reported count -> the program's obs counter
COUNTS = {
    "runtime.scheduler.steps": "runtime.scheduler.steps",
    "runtime.mailbox.enqueued": "runtime.mailbox.enqueued",
    "runtime.mailbox.matched": "runtime.mailbox.matched",
    "kernels.loops": "core.kernels.loops",
    "kernels.loops_fused": "core.kernels.loops_fused",
    "kernels.exchanges_hoisted": "core.kernels.exchanges_hoisted",
    "comm.redistribute.bytes": "comm.redistribute.bytes",
}

#: layers each workload must exercise (calls == 0 there is a failure: a
#: wrapper the program bypasses must not pass silently)
EXPECTED_LAYERS = {
    "mesh-halo": ("runtime.context", "runtime.scheduler", "runtime.mailbox",
                  "comm.boundary", "kernels", "core.meshspectral", "apps", "machines"),
    "bulk-numeric": ("runtime.context", "runtime.scheduler", "runtime.mailbox",
                     "comm.communicator", "comm.redistribute", "core.meshspectral",
                     "core.onedeep", "apps", "machines"),
    "farm-stream": ("runtime.context", "runtime.scheduler", "runtime.mailbox",
                    "core.pipeline", "apps", "machines"),
}
#: share of rank-thread CPU the traced run must attribute to named layers
MIN_ATTRIBUTED = 0.90
#: the second backend a non-default seed's reference is checked against
CROSS_BACKEND = "threads"


class Checker:
    """Counts operations attempted and failed, and keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def resolve(workload: str, seed: int) -> list[tuple]:
    from repro.apps import registry

    return [(name, registry.get(name), params, machine)
            for name, params, machine in cases_for(workload, seed)]


def run_round(cases, mode: str | None = None, traced: bool = False):
    """One round: (host seconds, {app: (digest, makespan, error)}, counts).

    Only the app runs are timed; digests are taken after the round."""
    from repro.obs.metrics import scoped_registry
    from repro.serve.executor import result_digest

    results = []
    round_id = layers.new_span_id()
    with scoped_registry() as registry:
        start = time.perf_counter()
        for name, spec, params, machine in cases:
            run_start = time.perf_counter()
            layers.current_run_span = layers.new_span_id()
            try:
                results.append((name, spec.run(params, machine=machine, mode=mode), None))
            except Exception as exc:  # noqa: BLE001 - a failed run is a counted failure
                results.append((name, None, f"{type(exc).__name__}: {exc}"))
            if traced:
                layers.record_span(f"run:{name}", run_start, time.perf_counter(), round_id,
                                   span_id=layers.current_run_span)
        seconds = time.perf_counter() - start
        snap = registry.snapshot()
    if traced:
        layers.record_span("round", start, start + seconds, span_id=round_id)
    counts = {key: snap.get(metric, {}).get("value", 0) for key, metric in COUNTS.items()}
    outcomes = {
        name: (None, None, error) if result is None
        else (result_digest(result), result.elapsed, None)
        for name, result, error in results
    }
    return seconds, outcomes, counts


def check_round(checker: Checker, outcomes: dict, reference: dict, what: str) -> None:
    for name, (digest, makespan, error) in outcomes.items():
        ref = reference[name]
        if error is not None:
            checker.check(False, f"{what} {name}: {error}")
        elif digest != ref["digest"]:
            checker.check(False, f"{what} {name}: digest {digest[:16]} != {ref['digest'][:16]}")
        else:
            checker.check(makespan == ref["makespan"],
                          f"{what} {name}: makespan {makespan!r} != {ref['makespan']!r}")


#: fresh processes whose set-up is measured, besides the benchmark's own
SETUP_CHILDREN = 4
#: host-speed probes timed right after each set-up
SETUP_PROBES = 3


def setup_probe(workload: str, seed: int, t_start: float) -> dict:
    """Set-up as a fresh process pays it: imports and the warm-up round;
    with the host-speed probes timed right after it."""
    run_round(resolve(workload, seed))
    setup = time.perf_counter() - t_start
    return {"setup_s": setup, "probe_ms": [common.probe_ms() for _ in range(SETUP_PROBES)]}


def probe_setup_in_child(workload: str, seed: int, env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        env=env, cwd=common.ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_loop(cases, seconds: float, min_rounds: int, checker: Checker, reference: dict,
               ref_counts: dict, traced: bool, acc: dict | None = None,
               probes: list[float] | None = None, marks: list[int] | None = None):
    """Rounds for *seconds* (at least *min_rounds*); returns their host times.

    With *probes*, the host-speed probe runs between rounds, no more often
    than every :data:`common.PROBE_EVERY_S`, and once after the last round;
    its times go to *probes*, and each round's mark (see
    :func:`common.scale_each`) to *marks*."""
    times: list[float] = []
    start = time.perf_counter()
    last_probe = float("-inf")
    while len(times) < min_rounds or time.perf_counter() - start < seconds:
        if probes is not None:
            if time.perf_counter() - last_probe >= common.PROBE_EVERY_S:
                probes.append(common.probe_ms())
                last_probe = time.perf_counter()
            marks.append(len(probes))
        dt, outcomes, counts = run_round(cases, traced=traced)
        times.append(dt)
        check_round(checker, outcomes, reference, "traced round" if traced else "round")
        checker.check(counts == ref_counts, f"counts {counts} != reference {ref_counts}")
        if acc is not None:
            everything, ranks = layers.collect()
            layers.add_into(acc["all"], everything)
            layers.add_into(acc["rank"], ranks)
    if probes is not None:
        probes.append(common.probe_ms())
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        t_start: float, env: dict, record_references: bool) -> dict:
    cases = resolve(workload, seed)
    checker = Checker()

    _, warm, warm_counts = run_round(cases)
    setup_samples = [{"setup_s": time.perf_counter() - t_start,
                      "probe_ms": [common.probe_ms() for _ in range(SETUP_PROBES)]}]
    out: dict = {"checker": checker, "apps": [
        (name, machine, params.get("nprocs", 0)) for name, _, params, machine in cases]}

    if record_references:
        entry = {name: {"digest": d, "makespan": m} for name, (d, m, e) in warm.items()}
        entry["counts"] = warm_counts
        common.save_references(workload, entry)

    # The reference: committed for the default seed, else the warm-up run.
    if seed == common.DEFAULT_SEED:
        committed = common.load_references()[workload]
        reference = {name: committed[name] for name, *_ in cases}
        ref_counts = committed["counts"]
        check_round(checker, warm, reference, "warm-up vs committed")
        checker.check(warm_counts == ref_counts,
                      f"warm-up counts {warm_counts} != committed {ref_counts}")
    else:
        reference = {name: {"digest": d, "makespan": m} for name, (d, m, e) in warm.items()}
        ref_counts = warm_counts
        check_round(checker, warm, reference, "warm-up")
    # Every seed's reference is checked once against a second backend.
    _, cross, _ = run_round(cases, mode=CROSS_BACKEND)
    check_round(checker, cross, reference, f"{CROSS_BACKEND} backend")

    if not trace and not smoke:
        setup_samples += [probe_setup_in_child(workload, seed, env)
                          for _ in range(SETUP_CHILDREN)]

    min_rounds = 1 if smoke else 2
    if not trace:
        probes: list[float] = []
        marks: list[int] = []
        times = timed_loop(cases, 0 if smoke else seconds, min_rounds, checker,
                           reference, ref_counts, traced=False, probes=probes, marks=marks)
        round_ms = [t * 1e3 for t in times]
        scaled_ms = common.scale_each(round_ms, marks, probes)
        p50, p50_raw = common.median(scaled_ms), common.median(round_ms)
        tail, pct, n = common.tail(scaled_ms)
        tail_raw = common.tail(round_ms)[0]
        rate, rate_raw = 1e3 * n / sum(scaled_ms), 1e3 * n / sum(round_ms)
        rss = common.self_peak_rss_mb()
        setup_raw = common.median([s["setup_s"] for s in setup_samples])
        setup = common.median([s["setup_s"] * common.host_scale(s["probe_ms"])
                               for s in setup_samples])
        out["metrics"] = {
            "setup_s": (setup, "s"),
            "ops_per_s": (rate, "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_tail_ms": (tail, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        out["lines"] = [
            common.line("host_scale", common.host_scale(probes), "x",
                        f"{common.PROBE_NOMINAL_MS:g} ms / mean of {len(probes)} probes; "
                        "times below are scaled (measured in brackets)"),
            common.line("setup_s", setup, "s", f"[{setup_raw:.4g}] median of "
                        f"{len(setup_samples)} set-ups, each scaled by its own probes"),
            common.line("rounds_per_s", rate, "1/s",
                        f"[{rate_raw:.4g}] rounds one at a time, checks between rounds excluded"),
            common.line("round_p50_ms", p50, "ms", f"[{p50_raw:.4g}] n={n}"),
            common.line("round_tail_ms", tail, "ms", f"[{tail_raw:.4g}] p{pct:.1f}, n={n}"),
            common.line("peak_rss_mb", rss, "MB"),
        ]
        out["record"] = {"round_ms": round_ms, "probe_ms": probes, "probe_marks": marks,
                         "setup": setup_samples}
        return out

    # Traced run: untraced rounds first (the overhead baseline), then the
    # same rounds with every layer wrapped.
    half = 0 if smoke else seconds / 2
    untraced = timed_loop(cases, half, min_rounds, checker, reference, ref_counts,
                             traced=False)
    layers.install()
    layers.collect()
    acc: dict = {"all": {}, "rank": {}}
    traced = timed_loop(cases, half, min_rounds, checker, reference, ref_counts,
                           traced=True, acc=acc)
    layers.uninstall()
    rounds = len(traced)
    metrics = layer_metrics(acc, rounds)
    metrics["trace_overhead_x"] = (common.median(traced) / common.median(untraced), "x")
    for key in COUNTS:
        metrics[key] = (float(ref_counts[key]), "count")
    attributed = 1.0 - metrics["unattributed.share"][0]
    checker.check(attributed >= MIN_ATTRIBUTED,
                  f"named layers hold {attributed:.1%} of rank-thread CPU "
                  f"(< {MIN_ATTRIBUTED:.0%})")
    for layer in EXPECTED_LAYERS[workload]:
        checker.check(metrics[f"{layer}.calls"][0] > 0,
                      f"layer {layer} shows no calls on {workload}")
    out["metrics"] = metrics
    out["lines"] = [
        common.line("trace_overhead_x", metrics["trace_overhead_x"][0], "x",
                    f"traced {rounds} rounds vs untraced {len(untraced)}"),
        common.line("attributed_share", attributed, "ratio", "of rank-thread CPU"),
    ]
    out["record"] = {"spans": layers.spans(), "totals": acc}
    return out


def layer_metrics(acc: dict, ops: int, share_of: str = "rank") -> dict:
    """Per-op ``<layer>.busy_ms/.wait_ms/.calls/.share`` from summed totals.

    ``share`` is the layer's self CPU over the CPU of *share_of* threads
    (rank threads on the simulator workloads)."""
    everything, base = acc["all"], acc[share_of]
    base_total = sum(v[0] for v in base.values()) or 1
    metrics: dict = {}
    for layer in (*layers.LAYERS, layers.UNATTRIBUTED):
        busy, wait, calls = everything.get(layer, (0, 0, 0))
        metrics[f"{layer}.busy_ms"] = (busy / 1e6 / ops, "ms")
        if layer != layers.UNATTRIBUTED:
            metrics[f"{layer}.wait_ms"] = (max(wait, 0) / 1e6 / ops, "ms")
            metrics[f"{layer}.calls"] = (calls / ops, "count")
        metrics[f"{layer}.share"] = (base.get(layer, (0,))[0] / base_total, "ratio")
    metrics["traced_cpu.busy_ms"] = (base_total / 1e6 / ops, "ms")
    return metrics
