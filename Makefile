PY ?= python

# Fixed seeds for the fault-injection suite (reproducible fault plans).
FAULT_SEEDS ?= 101 202 303

.PHONY: install test faults docs-check fuzz-smoke fuzz fuzz-soak serve-smoke concurrency-smoke drift-smoke perfbench-smoke bench bench-quick bench-gate experiments examples clean

# Experiments with committed perf baselines, gated by bench_compare.
GATED_EXPERIMENTS = a1 e1 e3 e5 e6 e7 e10 e13 e14 e16 e17 e18 e19 x01 x04

# Differential fuzzer knobs (docs/testing.md).  The smoke tier is a
# fixed-seed sweep small enough for every `make test`; the soak tier
# cycles the registry until the time budget runs out.
FUZZ_SEED ?= 5
FUZZ_SMOKE_CASES ?= 200
FUZZ_BUDGET ?= 300

install:
	pip install -e . --no-build-isolation

test: faults docs-check fuzz-smoke serve-smoke concurrency-smoke drift-smoke perfbench-smoke
	$(PY) -m pytest tests/

# Fuzz smoke: every registered operator, deterministic, < 2 minutes.
fuzz-smoke:
	$(PY) -m repro fuzz --cases $(FUZZ_SMOKE_CASES) --seed $(FUZZ_SEED)

# Fuzz soak: keep cycling the registry under a wall-clock budget.
# `fuzz-soak` is the name the nightly workflow invokes.
fuzz:
	$(PY) -m repro fuzz --soak --seed $(FUZZ_SEED) --time-budget $(FUZZ_BUDGET)

fuzz-soak: fuzz

# Streaming-server smoke: real `repro serve` subprocess, 3 tenants over
# the serve/v1 line protocol, SIGINT drain must come back clean
# (docs/serving.md).
serve-smoke:
	$(PY) scripts/serve_smoke.py

# Thread-stress smoke: the `concurrency`-marked pytest subset (seqlock
# contention, metrics hammer, threaded ingest) plus a fixed-seed fuzz
# sweep narrowed to the bounded-staleness relation (docs/testing.md).
concurrency-smoke:
	$(PY) -m pytest tests -m concurrency
	$(PY) -m repro fuzz --cases 50 --seed 7 --relations staleness

# Drift smoke: EH-moment + drift-detector property/regression tests
# plus a fixed-seed fuzz sweep narrowed to the four new operators
# (docs/testing.md).
drift-smoke:
	$(PY) -m pytest tests/test_eh.py tests/test_drift.py -q
	$(PY) -m repro fuzz --cases 50 --seed 11 \
		--ops ExponentialHistogramMean ExponentialHistogramVariance \
		DDMDriftDetector EWMADriftDetector

# Benchmark trace-point smoke: every perfbench workload for 2 s with
# span wrappers installed (--trace 1) must exit 0 with "failed": 0, so a
# deleted or renamed LAYER_POINTS target fails here (perfbench/README.md).
perfbench-smoke:
	$(PY) scripts/perfbench_smoke.py

# Documentation lint: dead links + stale benchmark references.
docs-check:
	$(PY) scripts/docs_check.py

# Fault suite: deterministic fault plans + crash-recovery and reshard
# benchmarks at the three fixed seeds (REPRO_FAULT_SEEDS picked up by
# bench_r01/bench_r02).
faults:
	REPRO_FAULT_SEEDS="$(FAULT_SEEDS)" $(PY) -m pytest \
		tests/test_fault_injection.py tests/test_checkpoint_manager.py \
		tests/test_invariants.py tests/test_resilience_state.py \
		tests/test_reshard.py \
		benchmarks/bench_r01_recovery.py benchmarks/bench_r02_reshard.py \
		--benchmark-disable

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-quick:
	$(PY) -m pytest benchmarks/ --benchmark-disable

# Perf regression gate: re-run the gated experiments, then diff their
# fresh JSON against the committed baseline-*.json (charged work/space
# columns only — wall-clock columns are excluded by design).
bench-gate:
	$(PY) -m pytest benchmarks/bench_a01_sigma_slack.py benchmarks/bench_e01_css.py \
		benchmarks/bench_e03_buildhist.py \
		benchmarks/bench_e05_sbbc.py benchmarks/bench_e06_basic_counting.py \
		benchmarks/bench_e07_sum.py benchmarks/bench_e10_freq_sliding.py \
		benchmarks/bench_e13_countmin.py benchmarks/bench_e14_pipeline.py \
		benchmarks/bench_e16_ingest_fastpath.py benchmarks/bench_e17_mergetree.py \
		benchmarks/bench_e18_fusion.py benchmarks/bench_e19_concurrent.py \
		benchmarks/bench_x01_windowed_cms.py benchmarks/bench_x04_drift.py \
		--benchmark-disable -q
	for e in $(GATED_EXPERIMENTS); do \
		$(PY) scripts/bench_compare.py \
			benchmarks/results/baseline-$$e.json \
			benchmarks/results/$$(echo $$e | tr a-z A-Z).json || exit 1; \
	done

experiments:
	$(PY) scripts/run_experiments.py --quick

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran clean"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
