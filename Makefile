# Convenience targets for the OASSIS reproduction.

PYTHON ?= python3

.PHONY: install test lint doclint typecheck bench-suite determinism perfbench perfbench-test gateway-smoke chaos examples figures stats clean

install:
	$(PYTHON) setup.py develop

# the tier-1 suite (tests/, via pytest's testpaths); CI runs this target
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# project-invariant linter (rule catalogue: docs/ANALYSIS.md): the eight
# per-file rules over every module of src/; exits non-zero on any
# error-severity finding.  CI's lint job runs this target
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/

# doc cross-link checker: fails on dangling `docs/*.md` references
# anywhere in the repository's markdown; CI's lint job runs this target
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

# the figures, a traced run of each domain at threshold 0.3 with six
# members (where MORE tips and pruning clicks happen, which the figures'
# runs never make), and four travel sessions served in one process (one
# shared lattice, checked by the serial oracle), at PYTHONHASHSEED 0 and
# 1; fails when the figures, the printed answers, the stats report's
# counters and derived sections, or the serving report less its three
# wall-clock rates differ between the two
DETERMINISM_DIR = .determinism

determinism:
	rm -rf $(DETERMINISM_DIR) && mkdir -p $(DETERMINISM_DIR)
	set -e; for seed in 0 1; do \
	  PYTHONHASHSEED=$$seed $(MAKE) --no-print-directory figures > $(DETERMINISM_DIR)/figures-$$seed.txt; \
	  for domain in travel culinary health; do \
	    PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) -m repro run --domain $$domain \
	      --threshold 0.3 --crowd-size 6 --stats-json $(DETERMINISM_DIR)/stats.json \
	      > $(DETERMINISM_DIR)/$$domain-$$seed.txt; \
	    $(PYTHON) -c 'import json, sys; r = json.load(open(sys.argv[1])); \
	      print(json.dumps({k: r[k] for k in ("counters", "derived")}, indent=1, sort_keys=True))' \
	      $(DETERMINISM_DIR)/stats.json > $(DETERMINISM_DIR)/$$domain-$$seed.stats; \
	  done; \
	  PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) -m repro serve-sim --domain travel \
	    --sessions 4 --crowd-size 6 --json > $(DETERMINISM_DIR)/serve.json; \
	  $(PYTHON) -c 'import json, sys; r = json.load(open(sys.argv[1])); \
	    assert r["verified"], r["mismatches"]; \
	    [r.pop(k) for k in ("elapsed_seconds", "questions_per_second", "sessions_per_second")]; \
	    print(json.dumps(r, indent=1, sort_keys=True))' \
	    $(DETERMINISM_DIR)/serve.json > $(DETERMINISM_DIR)/serve-$$seed.json; \
	done
	set -e; cd $(DETERMINISM_DIR); diff figures-0.txt figures-1.txt; \
	for domain in travel culinary health; do \
	  diff $$domain-0.txt $$domain-1.txt; diff $$domain-0.stats $$domain-1.stats; \
	done; \
	diff serve-0.json serve-1.json
	rm -rf $(DETERMINISM_DIR)

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

# every example; the interactive demo runs twice, answering by itself and
# then typed from a scripted stdin (an answer, a pruning click, quit)
examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/culinary_menu.py
	PYTHONPATH=src $(PYTHON) examples/self_treatment_survey.py
	PYTHONPATH=src $(PYTHON) examples/interactive_demo.py --auto --max-questions 20
	printf 'sometimes\nprune Ball Game\nquit\n' | PYTHONPATH=src $(PYTHON) examples/interactive_demo.py

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
