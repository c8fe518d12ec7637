# Convenience targets for the Jade reproduction.

.PHONY: install test lint bench bench-quick bench-smoke bench-engine bench-engine-check bench-whatif-check chaos-demo deploy-demo market-demo fluid-demo federate-demo tune-demo figures examples trace-demo whatif-demo sweep-demo clean

install:
	pip install -e .

test:
	pytest tests/

lint:
	ruff check src tests benchmarks

# Short self-sizing run with decision tracing on, then the causal timeline.
trace-demo:
	python -m repro ramp --scale 0.15 --peak 350 --trace /tmp/repro-trace.jsonl
	python -m repro trace /tmp/repro-trace.jsonl

# Fork the managed ramp mid-climb and compare candidate configurations.
whatif-demo:
	python -m repro whatif --at 150 --scale 0.25 --peak 350 \
		--horizon 60 --warmup 45 --slo 0.25 --report /tmp/repro-whatif.json
	@echo "canonical candidate report: /tmp/repro-whatif.json"

bench:
	pytest benchmarks/ --benchmark-only -s

bench-quick:
	REPRO_BENCH_SCALE=0.35 pytest benchmarks/ --benchmark-only -s

# A single reduced-horizon figure benchmark; fast enough for CI.  0.15 is
# the smallest compression that keeps the Fig. 5 staircase shape intact.
bench-smoke:
	REPRO_BENCH_SCALE=0.15 pytest benchmarks/bench_fig5_replicas.py \
		--benchmark-only -x -q -s

# Gray failure demo: the legacy up-flag heartbeat misses a crawling DB
# replica; the phi-accrual progress detector repairs it.  Then the
# classic crash campaign with a multi-seed scorecard.
chaos-demo:
	python -m repro chaos --campaign gray --detector legacy \
		--seeds 1 --clients 60 --duration 420 --serial
	python -m repro chaos --campaign gray --seeds 1 --clients 60 \
		--duration 420 --events --serial
	python -m repro chaos --campaign crash --seeds 1,2,3 --clients 60 \
		--duration 420 --json /tmp/repro-chaos.json
	@echo "canonical scorecard: /tmp/repro-chaos.json"

# Zero-downtime deployment demo: a bad push caught by the canary and
# rolled back automatically, then a clean crossover bounce with the
# per-step event log, and the canonical scorecard.
deploy-demo:
	python -m repro deploy --scenario bad-push --seeds 1 --serial
	python -m repro deploy --scenario clean-bounce --strategy crossover \
		--seeds 1 --events --serial
	python -m repro deploy --scenario bad-push --seeds 1,2,3 \
		--json /tmp/repro-deploy.json
	@echo "canonical scorecard: /tmp/repro-deploy.json"

# Heterogeneous fleet demo: the spot-heavy fleet on the Fig. 9 ramp with
# its rebalance/interruption log, the fleet-mix what-if comparison, and
# the canonical scorecard.
market-demo:
	python -m repro market --scenario spot-heavy --seeds 1 --events --serial
	python -m repro market --scenario volatile --seeds 1 --serial
	python -m repro market --scenario spot-heavy --seeds 1,2,3 \
		--json /tmp/repro-market.json
	@echo "canonical scorecard: /tmp/repro-market.json"

# Fluid workload demo: the paper's ramp on the flow engine, a hybrid
# run switching between cohorts and fluid at 300 users, and the
# million-user ramp.
fluid-demo:
	python -m repro ramp --fluid --scale 0.25
	python -m repro ramp --fluid --fluid-threshold 300 --scale 0.25
	python -m repro ramp --fluid --cohort 2000 --peak 1000000

# Multi-region federation demo: a 3-region follow-the-sun cycle, a
# 2-region evacuation with the epoch routing log, and the 4-region
# global ramp's canonical scorecard.
federate-demo:
	python -m repro federate --scenario follow-the-sun --regions 3 --serial
	python -m repro federate --scenario evacuation --regions 2 \
		--events --serial
	python -m repro federate --scenario global-ramp --regions 4 \
		--json /tmp/repro-federation.json
	@echo "canonical scorecard: /tmp/repro-federation.json"

# Controller autotuning demo: a small threshold/inhibition grid through
# the cached runner, winner written as a tuned config (re-run it: the
# second pass resolves from the cache).
tune-demo:
	python -m repro tune --app-max 0.7,0.8 --app-min 0.38 \
		--db-max 0.65,0.75 --db-min 0.4 --inhibitions 30,60 \
		--seeds 1 --out /tmp/repro-tuned.json
	@echo "tuned config: /tmp/repro-tuned.json"

# Engine benchmark: every BENCH_engine.json section (micro, ramp,
# whatif, sweep, chaos, deploy, market, fluid, policy, federation) in
# one run; refreshes the committed report.  A subsystem's CI gate is
# `python -m repro bench --only NAME --smoke`; one section is
# re-recorded in place with `--only NAME --out BENCH_engine.json`.
bench-engine:
	python -m repro bench --out BENCH_engine.json

# Perf gate used by CI: fail if the micro scenarios regress >25% against
# the committed report.
bench-engine-check:
	python -m repro bench --check BENCH_engine.json --tolerance 0.25

# Perf gate over the what-if work: validate the committed whatif section
# (byte-identity, >=3x memoized decision speedup), then run a 2-candidate
# parallel decision and a 2x2 sweep shard live.
bench-whatif-check:
	python -m repro bench --check-whatif BENCH_engine.json

# A small grid through the parallel cached runner (re-run it: the second
# pass resolves from the cache).
sweep-demo:
	python -m repro sweep --seeds 1,2 --scales 0.1 \
		--policies static,managed --csv /tmp/repro-sweep.csv
	@echo "sweep rows: /tmp/repro-sweep.csv"

# Regenerate every paper figure/table series into benchmarks/results/
figures: bench

examples:
	python examples/quickstart.py
	python examples/reconfiguration.py
	python examples/adl_deployment.py
	python examples/self_recovery.py
	python examples/latency_slo.py
	python examples/three_tier.py
	python examples/trace_replay.py
	python examples/self_sizing.py --quick

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
