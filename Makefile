# Convenience targets for the lpbcast reproduction.

PYTHON ?= python

.PHONY: install test test-slow coverage fuzz bench bench-figures ledger-smoke pairs examples loc check clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

# Line-coverage report over src/repro.  Requires pytest-cov (the `cov`
# extra); prints a pointer instead of failing when it isn't installed.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
	    && $(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
	    || echo "pytest-cov not installed; run: pip install -e .[test,cov]"

# The self-test (7/7 planted bugs) plus the object-engine campaigns CI's
# fuzz-smoke job runs (plain — long-stream family included —, Byzantine,
# causal), each once as drawn and once cycling the five scenario presets:
# serial == sharded on 25 scenarios each.
PRESETS = --preset steady_state --preset flash_crowd --preset mass_departure \
	--preset correlated_crashes --preset flaky_wan
fuzz:
	$(PYTHON) -m repro fuzz --self-test --quiet
	$(PYTHON) -m repro fuzz --count 25 --seed 2026 --quiet
	$(PYTHON) -m repro fuzz --byzantine --count 25 --seed 2026 --quiet
	$(PYTHON) -m repro fuzz --causal --count 25 --seed 2026 --quiet
	$(PYTHON) -m repro fuzz --count 25 --seed 2026 $(PRESETS) --quiet
	$(PYTHON) -m repro fuzz --causal --count 25 --seed 2026 $(PRESETS) --quiet
	$(PYTHON) -m repro fuzz --byzantine --count 25 --seed 2026 $(PRESETS) --quiet

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The perf ledger at toy sizes, traced: output checks and schema only
# (<30 s), then its own smoke + attribution self-test.  Writes nothing
# tracked (no --record).
ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --smoke
	$(PYTHON) -m pytest benchmarks/ledger -q

# Alternating parent/change runs of one ledger workload (or a comma list:
# one table each, METRIC claimed on the first), with the verdict a claimed
# gain must meet and, where run.py prints them, whether the counter
# fingerprints agree.  Prints only; never records.
#   make pairs PARENT=/root/scratch/parent WORKLOAD=udp_stream \
#       METRIC=cpu_us_per_delivery [SEEDS=1-10]
SEEDS ?= 1-10
pairs:
	$(PYTHON) benchmarks/ledger_pairs.py --parent $(PARENT) --change . \
	    --workload $(WORKLOAD) --seeds $(SEEDS) $(if $(METRIC),--metric $(METRIC))

bench-figures:
	$(PYTHON) -m pytest benchmarks/bench_fig2_fanout.py \
	    benchmarks/bench_fig3_system_size.py \
	    benchmarks/bench_fig4_partition.py \
	    benchmarks/bench_fig5_sim_vs_analysis.py \
	    benchmarks/bench_fig6_reliability.py \
	    benchmarks/bench_fig7_pbcast.py --benchmark-only -s

examples:
	@for script in examples/*.py; do \
	    echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# Python line totals of src/, tests/ and benchmarks/ — the ROADMAP's
# "least code" numbers, read from a log instead of recounted by hand.
loc:
	@for tree in src tests benchmarks; do \
	    printf '%s: ' $$tree; \
	    find $$tree -name '*.py' -exec cat {} + | wc -l; \
	done

check: test bench

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
