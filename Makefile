# Convenience targets for the OASSIS reproduction.

PYTHON ?= python3

.PHONY: install test lint doclint typecheck bench-suite perfbench perfbench-test gateway-smoke chaos examples figures stats clean

install:
	$(PYTHON) setup.py develop

# the tier-1 suite (tests/, via pytest's testpaths); CI runs this target
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# project-invariant linter (rule catalogue: docs/ANALYSIS.md): every
# per-file rule plus the whole-program pass (call-graph effect
# inference, async blocking, determinism, wire taint — each deep finding
# carries a witness call chain); exits non-zero on any error-severity
# finding, so CI can gate on it
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ --deep

# doc cross-link checker: fails on dangling `docs/*.md` references
# anywhere in the repository's markdown (part of the CI lint job)
doclint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.doclint .

# mypy is configured in pyproject.toml (strict on repro.analysis,
# repro.service, repro.faults, repro.gateway, repro.api and
# repro.observability, lenient elsewhere); requires mypy on PATH
typecheck:
	$(PYTHON) -m mypy src/repro/analysis src/repro/service src/repro/faults src/repro/gateway src/repro/api src/repro/observability

# the paper-figure trend suite (benchmarks/): each test regenerates one
# figure's series and asserts the trend the paper reports
bench-suite:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# the end-to-end benchmark declared in BENCHMARK.json (perfbench/README.md):
# all four seeded workloads, each untraced (end-to-end metrics) and then
# traced (per-layer metrics); about 2.5 minutes on a 2-core Xeon VM
perfbench:
	$(PYTHON) perfbench/run.py --workload all --seed 1

# the benchmark's own tests: its oracles, the layer partition check and
# same-seed repeatability of every workload
perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench/test_perfbench.py -q

# CI smoke: start the gateway, replay a 1-seed campaign through it over
# loopback HTTP, assert MSP identity and a clean shutdown
gateway-smoke:
	PYTHONPATH=src $(PYTHON) -m repro gateway --domain demo --sessions 2 --crowd-size 4 --seed 0

# the seeded chaos campaign (docs/RELIABILITY.md): per seed, the session,
# gateway, client, shard and coordinator scenarios, every invariant
# checked across three fixed seeds, plus the supervisor's shard-restart
# p95 budget of 1 s; session, gateway and client replay a failing seed
# bit for bit (one thread)
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 0,1,2

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/culinary_menu.py
	PYTHONPATH=src $(PYTHON) examples/self_treatment_survey.py
	PYTHONPATH=src $(PYTHON) examples/interactive_demo.py --auto --max-questions 20

figures:
	PYTHONPATH=src $(PYTHON) -m repro figures fig5
	PYTHONPATH=src $(PYTHON) -m repro figures fig4f
	PYTHONPATH=src $(PYTHON) -m repro figures multiplicities

stats:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py --stats --stats-json stats_report.json
	$(PYTHON) -c "import json; r = json.load(open('stats_report.json')); \
	assert r['version'] == 1, r; \
	assert set(r) >= {'counters', 'derived', 'spans'}, sorted(r); \
	print('stats_report.json OK:', r['derived']['total_questions'], 'questions')"

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
