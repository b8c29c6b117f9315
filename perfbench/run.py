"""The repository benchmark: host time of the archetype simulator and its job server.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload mesh-halo --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --workload farm-stream --trace 1
    python3 perfbench/run.py --workload serve-hitmiss --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and their meaning.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("mesh-halo", "bulk-numeric", "farm-stream", "serve-hitmiss")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed part of the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one round (or a few jobs): the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite this workload's committed references "
                        f"(seed {common.DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_references and args.seed != common.DEFAULT_SEED:
        parser.error(f"--record-references needs --seed {common.DEFAULT_SEED}")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (its own set-up and peak memory)."""
    failed = attempted = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _reported(measured: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, in its order.

    An end-to-end metric is measured on every workload; a per-layer metric
    a workload does not exercise (a serve layer on a simulator workload)
    reads 0."""
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    reported = {}
    for entry in spec:
        value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
        if entry["name"] not in measured and not trace:
            raise KeyError(f"end-to-end metric {entry['name']} was not measured")
        reported[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return reported


def main(argv: list[str] | None = None) -> int:
    # A terminated run still stops the server it started and removes its
    # temporary directory: SIGTERM unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = _parse(argv)
    if not common.program_present():
        print(f"error: no program sources under {common.SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    tmp = common.new_tmp()
    try:
        common.make_hermetic(tmp)
        common.pin_to_one_cpu()
        env = dict(os.environ)
        import sim
        if args.setup_probe:
            print(json.dumps(sim.setup_probe(args.workload, args.seed, T_START)))
            return 0
        if args.workload == "serve-hitmiss":
            import serveload

            out = serveload.run(args.seed, args.seconds, bool(args.trace), args.smoke,
                                tmp, env, args.record_references)
        else:
            out = sim.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, T_START, env, args.record_references)
        checker = out["checker"]
        fingerprint = common.host_fingerprint()
        config = common.resolved_config(out["apps"])
        print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
        print(f"# host {json.dumps(fingerprint, sort_keys=True)}")
        print(f"# config {json.dumps(config, sort_keys=True)}")
        for text in out["lines"]:
            print(text)
        failed_frac = checker.failed / max(checker.attempted, 1)
        print(common.line("failed_frac", failed_frac, "ratio",
                          f"{checker.failed} of {checker.attempted} operations"))
        for reason in checker.reasons:
            print(f"# FAILED: {reason}")
        metrics = _reported(out["metrics"], args.trace)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "host": fingerprint, "config": config,
                  "attempted": checker.attempted, "failed": checker.failed,
                  "failures": checker.reasons, "metrics": metrics, **out["record"]}
        path = common.write_record(
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
        print(f"# record {path.relative_to(common.ROOT)}")
        print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": metrics}))
        return 0 if checker.failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
