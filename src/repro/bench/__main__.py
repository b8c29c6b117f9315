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
JSON.  One subcommand per host-time lever of :mod:`repro.bench.ab`
(``parallel``: deterministic backend vs one OS process per rank;
``kernels``: par-loop fusion off vs on) measures *host* seconds for the
lever's registry apps, sampling the two sides interleaved; virtual time
and digests must be identical on both sides, which is checked on every
row.  ``pipeline`` sweeps the image pipeline's blur-farm width and
reports virtual-time throughput and per-frame latency on both modelled
machines.  ``tune`` runs exhaustive autotuning searches
(:mod:`repro.bench.tune`) over the modern machine models and reports
tuned-vs-default virtual makespans, prediction error, and prune
hit-rates.  ``all`` sweeps every figure at a reduced problem scale,
runs the blocking-vs-overlapped exchange ablation, the pipeline
farm-width sweep, every host-time lever, and the autotuning ablation,
and emits a machine-readable artifact (``BENCH_PR9.json``) so the
performance trajectory can be tracked across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import ab, figures
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
    problems: list[str] = []
    for lever in ab.LEVERS.values():
        rows = ab.run_ablation(lever)
        report[lever.name] = {
            "description": f"simulator host-seconds, {lever.description} "
            "(virtual time identical)",
            "procs": lever.nprocs,
            "repeats": ab.DEFAULT_REPEATS,
            "host_cpus": ab.host_cpus(),
            "rows": [r.to_json() for r in rows],
        }
        print()
        print(ab.render_table(lever, rows))
        problems += ab.check_rows(lever, rows, min_speedup=None)
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
            *ab.LEVERS,
            "tune",
            "all",
            "list",
        ],
        help="figure to regenerate, 'overlap' for the blocking-vs-"
        "overlapped exchange ablation, 'pipeline' for the image-pipeline "
        "farm-width sweep, a host-time lever "
        f"({', '.join(repr(n) for n in ab.LEVERS)}), 'tune' for the "
        "autotuned-vs-default makespan ablation, "
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
        default=ab.DEFAULT_REPEATS,
        help="levers: host-time samples per side (best-of)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="levers: fail unless the best row's speedup clears X (the CI "
        "smoke's generous regression floor; applied only on hosts with at "
        "least the lever's minimum core count)",
    )
    parser.add_argument(
        "--nprocs",
        type=int,
        default=None,
        metavar="P",
        help="levers: rank count for the A/B (default: the lever's, "
        + ", ".join(f"{lv.nprocs} for {lv.name}" for lv in ab.LEVERS.values())
        + ")",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        metavar="APP",
        help="levers: restrict the A/B to these of the lever's registry "
        "apps (default: all of them)",
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name, (_, description) in FIGURES.items():
            print(f"  {name}: {description}")
        print("  overlap: blocking vs overlapped ghost-exchange ablation")
        print("  pipeline: image-pipeline throughput/latency vs farm width")
        for lever in ab.LEVERS.values():
            print(
                f"  {lever.name}: host-time A/B, {lever.description} "
                f"(apps: {', '.join(lever.rows)})"
            )
        print("  tune: autotuned vs default virtual-makespan ablation")
        return 0

    if args.figure == "all":
        return run_all(args.json or ARTIFACT)

    problems: list[str] = []
    if args.figure in ab.LEVERS:
        lever = ab.LEVERS[args.figure]
        unknown = sorted(set(args.apps or ()) - set(lever.rows))
        if unknown:
            parser.error(
                f"--apps: the {lever.name} lever has no app(s) {unknown}; "
                f"choose from {list(lever.rows)}"
            )
        rows = ab.run_ablation(
            lever, apps=args.apps, nprocs=args.nprocs, repeats=args.repeats
        )
        table = ab.render_table(lever, rows)
        problems = ab.check_rows(lever, rows, min_speedup=args.min_speedup)
        series = [r.to_json() for r in rows]
    elif args.figure == "tune":
        rows = tune_bench.run_ablation()
        table = tune_bench.render_table(rows)
        problems = tune_bench.check_rows(rows)
        series = [r.to_json() for r in rows]
    elif args.figure == "overlap":
        series = figures.overlap_ablation()
        table = render_overlap_table(series)
    elif args.figure == "pipeline":
        series = figures.pipeline_farm()
        table = render_pipeline_table(series)
    else:
        experiment, description = FIGURES[args.figure]
        curves = experiment()
        table = format_curves(f"{args.figure} — {description}", curves)
        if not args.no_plot:
            table += "\n\n" + render_ascii_plot(curves)
        series = curves_to_json(curves)
    print(table)
    for p in problems:
        print(f"FAIL: {p}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(series, fh, indent=2)
        print(f"\nseries written to {args.json}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
