"""Command-line entry point: regenerate a paper figure from the shell.

Usage::

    python -m repro.bench fig06            # Figure 6 at default scale
    python -m repro.bench fig17 --json out.json
    python -m repro.bench overlap          # blocking vs overlapped A/B
    python -m repro.bench pipeline         # farm-width throughput/latency
    python -m repro.bench parallel         # serial vs process-parallel
    python -m repro.bench kernels          # kernel-fusion off vs on
    python -m repro.bench tune             # tuned vs default makespan
    python -m repro.bench all              # every figure, reduced scale,
                                           #   writes BENCH_PR9.json
    python -m repro.bench list

Each figure command runs the corresponding experiment, prints the
speedup table and an ASCII plot, and optionally writes the series as
JSON.  ``parallel`` measures *host* seconds for the messaging-heavy
workloads on the deterministic backend vs one-OS-process-per-rank
(:mod:`repro.runtime.parallel`); virtual time is identical on both,
which is digest-checked.  ``kernels``
measures host seconds with par-loop fusion forced off vs on
(:mod:`repro.bench.kernels`) — the plan, virtual clocks, and digests
are identical in both modes; only the group-body walk changes.
``pipeline`` sweeps the image pipeline's blur-farm width and reports
virtual-time throughput and per-frame latency on both modelled
machines.  ``tune`` runs exhaustive autotuning searches
(:mod:`repro.bench.tune`) over the modern machine models and reports
tuned-vs-default virtual makespans, prediction error, and prune
hit-rates.  ``all`` sweeps every figure at a reduced problem scale,
runs the blocking-vs-overlapped exchange ablation, the pipeline
farm-width sweep, the two host-time ablations, and the autotuning
ablation, and emits a machine-readable artifact (``BENCH_PR9.json``)
so the performance trajectory can be tracked across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import figures
from repro.bench import kernels as kernels_bench
from repro.bench import parallel as parallel_bench
from repro.bench import tune as tune_bench
from repro.bench.harness import SpeedupCurve
from repro.bench.report import format_curves, render_ascii_plot

FIGURES = {
    "fig06": (figures.figure06_mergesort, "traditional vs one-deep mergesort (Delta)"),
    "fig12": (figures.figure12_fft2d, "2-D FFT (IBM SP)"),
    "fig15": (figures.figure15_poisson, "Poisson solver (IBM SP)"),
    "fig16": (figures.figure16_cfd, "2-D CFD (Delta)"),
    "fig17": (figures.figure17_fdtd, "3-D FDTD (IBM SP)"),
    "fig18": (figures.figure18_spectral, "spectral flow vs 5-proc base (IBM SP)"),
}

#: default output of ``python -m repro.bench all``
ARTIFACT = "BENCH_PR9.json"

#: machine model each figure runs on (matches the figure defaults)
FIGURE_MACHINES = {
    "fig06": "intel-delta",
    "fig12": "ibm-sp",
    "fig15": "ibm-sp",
    "fig16": "intel-delta",
    "fig17": "ibm-sp",
    "fig18": "ibm-sp-small-mem",
}

#: reduced problem scales for the ``all`` sweep — the same sizes the test
#: suite exercises, so the sweep finishes in seconds while preserving
#: every figure's shape claim
FAST_PARAMS: dict[str, dict] = {
    "fig06": {"n": 1 << 14, "procs": (1, 4, 16)},
    "fig12": {"shape": (64, 64), "repeats": 2, "procs": (1, 4, 16)},
    "fig15": {"nx": 128, "ny": 128, "iters": 5, "procs": (1, 4, 16)},
    "fig16": {"nx": 128, "ny": 128, "steps": 2, "procs": (1, 4, 16)},
    "fig17": {"n": 16, "steps": 2, "procs": (1, 8, 16, 18)},
    "fig18": {"nr": 128, "nz": 256, "steps": 1, "procs": (5, 10, 20), "base_procs": 5},
}


def curves_to_json(curves: list[SpeedupCurve]) -> list[dict]:
    return [
        {
            "label": c.label,
            "points": [
                {"procs": p.procs, "t_seq": p.t_seq, "t_par": p.t_par, "speedup": p.speedup}
                for p in c.points
            ],
        }
        for c in curves
    ]


def render_pipeline_table(rows: list[dict]) -> str:
    lines = [
        "image pipeline: throughput/latency vs blur-farm width (virtual time)",
        f"{'machine':>14} {'width':>5} {'P':>3} {'makespan':>12} "
        f"{'items/s':>12} {'latency':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r['machine']:>14} {r['width']:>5} {r['procs']:>3} "
            f"{r['makespan']:>12.6g} {r['throughput']:>12.6g} {r['latency']:>12.6g}"
        )
    return "\n".join(lines)


def render_overlap_table(rows: list[dict]) -> str:
    lines = [
        "blocking vs overlapped ghost exchange (virtual makespan, seconds)",
        f"{'app':>8} {'machine':>14} {'P':>3} {'blocking':>12} {'overlapped':>12} {'ratio':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['app']:>8} {r['machine']:>14} {r['procs']:>3} "
            f"{r['blocking']:>12.6g} {r['overlapped']:>12.6g} {r['ratio']:>7.3f}"
        )
    return "\n".join(lines)


def run_all(json_path: str) -> int:
    """Sweep every figure at reduced scale and write the JSON artifact."""
    report: dict = {"artifact": "BENCH_PR9", "figures": {}}
    for name, (experiment, description) in FIGURES.items():
        curves = experiment(**FAST_PARAMS[name])
        entry = {
            "description": description,
            "machine": FIGURE_MACHINES[name],
            "params": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in FAST_PARAMS[name].items()
            },
            "curves": curves_to_json(curves),
        }
        report["figures"][name] = entry
        peaks = ", ".join(
            f"{c.label}: {c.peak().speedup:.2f}x @ P={c.peak().procs}" for c in curves
        )
        print(f"{name} [{entry['machine']}] {description} — {peaks}")
    ablation = figures.overlap_ablation()
    report["figures"]["fig_overlap"] = {
        "description": "blocking vs overlapped ghost exchange makespan",
        "machine": ", ".join(m.name for m in figures.OVERLAP_MACHINES),
        "params": {"procs": 4},
        "rows": ablation,
    }
    print()
    print(render_overlap_table(ablation))
    pipeline_rows = figures.pipeline_farm(widths=(1, 2, 4), items=16, shape=(16, 16))
    report["figures"]["fig_pipeline"] = {
        "description": "image pipeline throughput/latency vs blur-farm width",
        "machine": ", ".join(m.name for m in figures.OVERLAP_MACHINES),
        "params": {"widths": [1, 2, 4], "items": 16, "shape": [16, 16]},
        "rows": pipeline_rows,
    }
    print()
    print(render_pipeline_table(pipeline_rows))
    parallel_rows = parallel_bench.run_ablation()
    report["parallel"] = {
        "description": "simulator host-seconds, deterministic backend vs "
        "one OS process per rank (virtual time identical)",
        "procs": parallel_bench.DEFAULT_NPROCS,
        "repeats": parallel_bench.DEFAULT_REPEATS,
        "host_cpus": parallel_bench.host_cpus(),
        "rows": [r.to_json() for r in parallel_rows],
    }
    print()
    print(parallel_bench.render_table(parallel_rows))
    problems = parallel_bench.check_rows(parallel_rows, min_speedup=None)
    kernel_rows = kernels_bench.run_ablation()
    report["kernels"] = {
        "description": "simulator host-seconds, par-loop fusion off vs on "
        "(plan and virtual time identical)",
        "procs": kernels_bench.DEFAULT_NPROCS,
        "repeats": kernels_bench.DEFAULT_REPEATS,
        "rows": [r.to_json() for r in kernel_rows],
    }
    print()
    print(kernels_bench.render_table(kernel_rows))
    problems += kernels_bench.check_rows(kernel_rows, min_speedup=None)
    tune_rows = tune_bench.run_ablation()
    report["tune"] = {
        "description": "autotuned vs default virtual makespan, exhaustive "
        "search (predicted-vs-measured error and prune hit-rate per case)",
        "machines": list(tune_bench.MACHINES),
        "rows": [r.to_json() for r in tune_rows],
    }
    print()
    print(tune_bench.render_table(tune_rows))
    problems += tune_bench.check_rows(tune_rows)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nartifact written to {json_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a figure from Massingill & Chandy (IPPS 1999).",
    )
    parser.add_argument(
        "figure",
        choices=[
            *FIGURES,
            "overlap",
            "pipeline",
            "parallel",
            "kernels",
            "tune",
            "all",
            "list",
        ],
        help="figure to regenerate, 'overlap' for the blocking-vs-"
        "overlapped exchange ablation, 'pipeline' for the image-pipeline "
        "farm-width sweep, 'parallel' for the serial-vs-process-"
        "parallel ablation, 'kernels' for the par-loop fusion ablation, "
        "'tune' for the autotuned-vs-default makespan ablation, "
        f"'all' for the reduced-scale sweep (writes {ARTIFACT}), "
        "or 'list' to enumerate them",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the series as JSON")
    parser.add_argument(
        "--no-plot", action="store_true", help="table only, skip the ASCII plot"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=parallel_bench.DEFAULT_REPEATS,
        help="parallel/kernels: host-time samples per mode (best-of)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="parallel/kernels: fail unless the speedup clears X "
        "(the CI smoke's generous regression floor; for 'parallel' the "
        "best row must clear it, and only on hosts with --min-cpus cores)",
    )
    parser.add_argument(
        "--min-cpus",
        type=int,
        default=4,
        metavar="N",
        help="parallel only: apply --min-speedup only when the host has "
        "at least N usable cores (speedup is capped by core count)",
    )
    parser.add_argument(
        "--nprocs",
        type=int,
        default=None,
        metavar="P",
        help="parallel/kernels: rank count for the ablation "
        f"(default {parallel_bench.DEFAULT_NPROCS} for parallel, "
        f"{kernels_bench.DEFAULT_NPROCS} for kernels)",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        choices=sorted(set(parallel_bench.WORKLOADS) | set(kernels_bench.WORKLOADS)),
        default=None,
        metavar="APP",
        help="parallel/kernels: restrict the ablation to these "
        "registry workloads (default: all the command knows)",
    )
    args = parser.parse_args(argv)

    def known_apps(workloads: dict) -> list[str] | None:
        """The requested apps this command's ablation knows (the --apps
        choices are the union across commands)."""
        if args.apps is None:
            return None
        picked = [a for a in args.apps if a in workloads]
        if not picked:
            parser.error(
                f"none of {args.apps} apply here; choose from {sorted(workloads)}"
            )
        return picked

    if args.figure == "list":
        for name, (_, description) in FIGURES.items():
            print(f"  {name}: {description}")
        print("  overlap: blocking vs overlapped ghost-exchange ablation")
        print("  pipeline: image-pipeline throughput/latency vs farm width")
        print("  parallel: serial vs process-parallel host-time ablation")
        print("  kernels: par-loop fusion host-time ablation (off vs on)")
        print("  tune: autotuned vs default virtual-makespan ablation")
        print("ablation workloads (from the shared app registry):")
        for name, (_, description) in sorted(parallel_bench.WORKLOADS.items()):
            print(f"  {name}: {description}")
        return 0

    if args.figure == "all":
        return run_all(args.json or ARTIFACT)

    if args.figure == "parallel":
        rows = parallel_bench.run_ablation(
            apps=known_apps(parallel_bench.WORKLOADS),
            nprocs=args.nprocs or parallel_bench.DEFAULT_NPROCS,
            repeats=args.repeats,
        )
        print(parallel_bench.render_table(rows))
        problems = parallel_bench.check_rows(
            rows, min_speedup=args.min_speedup, min_cpus=args.min_cpus
        )
        for p in problems:
            print(f"FAIL: {p}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump([r.to_json() for r in rows], fh, indent=2)
            print(f"\nseries written to {args.json}")
        return 1 if problems else 0

    if args.figure == "kernels":
        rows = kernels_bench.run_ablation(
            apps=known_apps(kernels_bench.WORKLOADS),
            nprocs=args.nprocs or kernels_bench.DEFAULT_NPROCS,
            repeats=args.repeats,
        )
        print(kernels_bench.render_table(rows))
        problems = kernels_bench.check_rows(rows, min_speedup=args.min_speedup)
        for p in problems:
            print(f"FAIL: {p}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump([r.to_json() for r in rows], fh, indent=2)
            print(f"\nseries written to {args.json}")
        return 1 if problems else 0

    if args.figure == "tune":
        rows = tune_bench.run_ablation()
        print(tune_bench.render_table(rows))
        problems = tune_bench.check_rows(rows)
        for p in problems:
            print(f"FAIL: {p}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump([r.to_json() for r in rows], fh, indent=2)
            print(f"\nseries written to {args.json}")
        return 1 if problems else 0

    if args.figure == "overlap":
        rows = figures.overlap_ablation()
        print(render_overlap_table(rows))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(rows, fh, indent=2)
            print(f"\nseries written to {args.json}")
        return 0

    if args.figure == "pipeline":
        rows = figures.pipeline_farm()
        print(render_pipeline_table(rows))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(rows, fh, indent=2)
            print(f"\nseries written to {args.json}")
        return 0

    experiment, description = FIGURES[args.figure]
    curves = experiment()
    print(format_curves(f"{args.figure} — {description}", curves))
    if not args.no_plot:
        print()
        print(render_ascii_plot(curves))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(curves_to_json(curves), fh, indent=2)
        print(f"\nseries written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
