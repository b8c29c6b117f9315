"""The benchmark's own test: every workload's smoke mode, traced and untraced.

Run with ``python -m pytest perfbench`` from the checkout root (the tier-1
suite collects only ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mesh-halo", "bulk-numeric", "farm-stream", "serve-hitmiss")


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.fixture
def checkout_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout (the benchmark writes nowhere else)."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _spec(kind: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload: str, trace: int) -> None:
    code, lines = _run("--workload", workload, "--smoke", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _spec("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_reference_fails(checkout_dir: Path) -> None:
    """A wrong committed reference digest must make the run fail."""
    shutil.copytree(ROOT / "src", checkout_dir / "src")
    shutil.copytree(BENCH, checkout_dir / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", checkout_dir / "BENCHMARK.json")
    refs_path = checkout_dir / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["farm-stream"]["knapfarm"]["digest"] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    code, lines = _run("--workload", "farm-stream", "--smoke", cwd=checkout_dir)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"] and result["failed"] >= 1


def test_without_program_fails_silently(checkout_dir: Path) -> None:
    """With only the benchmark's own files there is nothing to measure."""
    shutil.copytree(BENCH, checkout_dir / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", checkout_dir / "BENCHMARK.json")
    code, lines = _run("--workload", "mesh-halo", "--seed", "1", cwd=checkout_dir)
    assert code != 0 and lines == []
