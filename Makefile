# Convenience entry points.  PYTHONPATH is set so targets work without an
# editable install (the offline container has no `wheel`).
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs-smoke chaos bench perfbench-smoke bench-parallel \
	bench-pipeline bench-kernels serve-smoke tune-smoke coverage lint

# Default gate: lint (when ruff is available), tier-1 tests, and the
# observability smoke check.
verify: lint test obs-smoke

# Ruff over src/ and tests/ (configured in pyproject.toml).  The offline
# container may not ship ruff; CI installs it, so skip gracefully here.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Tier-1 gate: the full suite (includes the chaos-marked tests at the
# default 4 seeds and the verify subsystem's own tests) — stays fast.
test:
	$(PYTHON) -m pytest -x -q

# Observability smoke: trace a small Poisson + mergesort run, export
# Chrome/Perfetto trace JSON, validate it against the trace-event
# structure, and check the critical-path invariant (path == makespan).
obs-smoke:
	$(PYTHON) -m repro.obs --smoke

# The chaos suite on its own: the 4-seed smoke sweep over the flagship
# apps + racy controls, then every @pytest.mark.chaos test.
chaos:
	$(PYTHON) -m repro.verify --smoke
	$(PYTHON) -m pytest -q -m chaos

# Reduced-scale sweep over every figure plus the blocking-vs-overlapped
# exchange ablation, the pipeline farm-width sweep, the host-time
# levers, and the autotuning ablation; writes BENCH_PR9.json.
bench:
	$(PYTHON) -m repro.bench all

# Pipeline smoke: the image-pipeline throughput/latency sweep on both
# modelled machines (virtual time only — fast everywhere).
bench-pipeline:
	$(PYTHON) -m repro.bench pipeline

# Job-server smoke: start a server on an ephemeral port with a
# throwaway cache, submit the same job twice (the second must be a
# cache hit with an identical digest and no new worker dispatch), then
# a third whose sampled re-execution must verify the cache bitwise,
# and shut down cleanly.
serve-smoke:
	$(PYTHON) -m repro.serve smoke

# Repo-benchmark smoke: the benchmark's own test, then one round (or a
# few served jobs) of every workload untraced and traced.  Catches any
# src/ change that breaks the benchmark's outside-in wrapping or its
# correctness checks; it times nothing against a bound.
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench
	$(PYTHON) perfbench/run.py --workload all --smoke --trace 0
	$(PYTHON) perfbench/run.py --workload all --smoke --trace 1

# Process-parallel lever smoke: serial vs one-OS-process-per-rank,
# digest identity checked on every row.  The speedup floor is generous
# (real multi-core hosts measure well above it) and applies only when
# the host has the lever's minimum of 4 usable cores — below that there
# is nothing to win.
bench-parallel:
	$(PYTHON) -m repro.bench parallel --repeats 1 --min-speedup 1.1

# Kernel-fusion lever smoke: fused vs unfused par-loop execution, digest
# identity checked on every row.  The floor is deliberately generous
# (0.2x trips only if fusion catastrophically regresses or the A/B
# harness breaks) because host timing on shared CI runners is noisy;
# the committed BENCH_PR9.json records the measured win.
bench-kernels:
	$(PYTHON) -m repro.bench kernels --repeats 1 --min-speedup 0.2

# Autotuning smoke: exhaustive searches on poisson + fft2d over two
# modern machines against a throwaway catalog — checks the entry is
# written, the tuned makespan never exceeds the default, a second
# search is a pure catalog hit, and the tuned end-to-end run's digest
# is bitwise-equal to the untuned run's.
tune-smoke:
	$(PYTHON) -m repro.tune smoke

# Coverage with a soft floor: the report is informational (exit 0) so a
# dip reads as a warning in CI rather than a red build; the floor keeps
# the expectation visible.  Configured in pyproject ([tool.coverage.*]).
# The offline container may not ship pytest-cov; CI installs it.
COVERAGE_FLOOR ?= 75
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term && \
		{ $(PYTHON) -m coverage report --fail-under=$(COVERAGE_FLOOR) >/dev/null 2>&1 \
			|| echo "WARNING: coverage below the $(COVERAGE_FLOOR)% soft floor (report-only)"; }; \
	else \
		echo "pytest-cov not installed; skipping coverage (CI runs it)"; \
	fi
