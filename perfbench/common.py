"""Shared helpers for the benchmark: paths, hermetic environment, statistics,
host fingerprint, resolved configuration and the result record.

Nothing here imports :mod:`repro` at module load, so ``run.py`` can time
the program's imports as part of set-up.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: the checkout root (the directory that holds ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: everything a run writes (results, spans, temporary directories) lives here
OUT_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"
#: the seed whose references are committed in ``references.json``
DEFAULT_SEED = 0
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def hermetic_env(tune_dir: Path) -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` variable, with an
    empty tuned-config catalog and ``src/`` on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_TUNE_DIR"] = str(tune_dir)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_hermetic(tmp: Path) -> None:
    """Apply :func:`hermetic_env` to this process (before importing repro)."""
    tune_dir = tmp / "tune"
    tune_dir.mkdir(parents=True, exist_ok=True)
    env = hermetic_env(tune_dir)
    os.environ.clear()
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process, and the threads and processes it starts, on one CPU.

    The deterministic backend runs exactly one rank thread at a time, so a
    simulator workload never keeps a second CPU busy.  Left free to migrate,
    each handoff between rank threads, or between the serve clients, the
    server and its worker, may wake a thread on the other, often idle, CPU,
    which takes a varying time.  Pinned, the host-speed probe also measures
    the CPU the workload runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


#: the probe's time at the reference host speed, in ms (about its time on a
#: 2-vCPU KVM guest of an Intel Xeon Sapphire Rapids host at its faster speed)
PROBE_NOMINAL_MS = 25.0
#: least time between two probes within a timed loop
PROBE_EVERY_S = 0.5
#: loop iterations in one probe
PROBE_ITERATIONS = 200_000


def probe_ms() -> float:
    """Time one run of the host-speed probe, in ms.

    The probe is a fixed interpreter-bound loop that uses no program code.
    On a shared virtual machine the host's speed drifts by up to ~1.8x,
    within a second and over minutes, far more than a benchmark run can
    average out.  The probe, timed between the rounds or jobs of a run,
    tracks that drift; see :func:`host_scale`.

    Of the probes tried, an interpreter loop tracked the workloads best
    (medians over 6-second windows correlate 0.8-0.9 with it), and its
    response to the drift lies between theirs: per unit of change in the
    probe's log time, the log round time moved 0.7 (bulk-numeric), 1.1
    (mesh-halo) and 1.3 (farm-stream).  A numpy part made the probe respond
    less, and handoffs between two threads made it track less closely."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * i
        table[i & 1023] = total
    return (time.perf_counter() - start) * 1e3


def host_scale(probes: list[float]) -> float:
    """The factor that scales host times measured alongside *probes* to the
    reference host speed: :data:`PROBE_NOMINAL_MS` over their mean."""
    return PROBE_NOMINAL_MS / statistics.fmean(probes)


def scale_each(values: list[float], marks: list[int], probes: list[float]) -> list[float]:
    """Each value scaled by the two probes that bracket it in time.

    ``marks[i]`` is the number of probes timed before value *i* started, so
    ``probes[marks[i] - 1]`` ran just before it and ``probes[marks[i]]``
    (if any) just after.  The host's speed changes within a second, so the
    probes nearest a round or job track it better than the run's mean."""
    last = len(probes) - 1
    return [value * host_scale([probes[m - 1], probes[min(m, last)]])
            for value, m in zip(values, marks)]


def new_tmp() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.  With too few samples for that,
    the maximum (percentile 100)."""
    n = len(values)
    if n == 0:
        return float("nan"), 0.0, 0
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def resolved_config(apps: list[tuple[str, str, int]]) -> dict:
    """What the program resolved to: backend, fusion, tile bytes and the
    tuned-config entry (if any) for each ``(app, machine, nprocs)``."""
    from repro import fastpath
    from repro.kernels import runtime as kernel_runtime
    from repro.runtime import backends
    from repro.tune import catalog

    tuned = {}
    for app, machine, nprocs in apps:
        entry = catalog.lookup(app, machine, nprocs)
        tuned[f"{app}@{machine}/P{nprocs}"] = None if entry is None else entry.config.to_dict()
    return {
        "backend": backends.resolve(None),
        "fastpath": fastpath.enabled(),
        "fusion": kernel_runtime.fusion_enabled(),
        "tile_bytes": kernel_runtime.tile_bytes(),
        "tune_dir": str(catalog.root()),
        "tuned": tuned,
    }


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def save_references(workload: str, entry: dict) -> None:
    refs = load_references() if REFERENCES.exists() else {"seed": DEFAULT_SEED}
    refs[workload] = entry
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_record(name: str, record: dict) -> Path:
    """Store one run's full record (metrics, fingerprint, configuration)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return path


def line(name: str, value: float, unit: str, note: str = "") -> str:
    """One human-readable metric line (printed before the result object)."""
    return f"{name:<22} {value:>14.6g} {unit:<6}{('  ' + note) if note else ''}"
