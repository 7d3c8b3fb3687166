PYTHON ?= python

# Put src first on PYTHONPATH, composing with (not clobbering) whatever the
# caller already set — in the environment or on the make command line
# (`override` is what keeps a command-line value from defeating the
# composition).
ifeq ($(origin PYTHONPATH), undefined)
export PYTHONPATH := src
else
export override PYTHONPATH := src:$(PYTHONPATH)
endif

#: Coverage floor (percent) enforced on src/repro/chase/ by `make coverage`.
COVERAGE_FLOOR ?= 80

#: Bind address / port for `make serve` (PORT=0 binds an ephemeral port).
HOST ?= 127.0.0.1
PORT ?= 8080

.PHONY: test test-determinism lint bench bench-quick bench-gate bench-exhibits coverage stats docs-check serve bench-service

test:
	$(PYTHON) -m pytest -x -q

# Chase output must not depend on hashing: interned terms hash by identity
# (memory addresses) and strings by PYTHONHASHSEED.  The guard chases one
# corpus slice in two fresh interpreters under different hash seeds and
# compares derivations and instance digests.
test-determinism:
	$(PYTHON) -m pytest tests/integration/test_determinism.py -q

# Ruff (config in pyproject.toml).  The offline dev container does not ship
# ruff; skip with a note there instead of failing — CI installs it and gets
# the real check.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench:
	$(PYTHON) benchmarks/harness.py

bench-quick:
	$(PYTHON) benchmarks/harness.py --quick

# Gate on the trajectory the harness wrote (see docs/CI.md for the knobs).
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

# The per-exhibit pytest-benchmark suites (X1-X12 + ablations).
bench-exhibits:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest bench_*.py -q

# Broken intra-repo markdown links in docs/*.md and the top-level *.md
# files (stdlib-only checker; the CI docs job and a tier-1 test run the
# same thing).
docs-check:
	$(PYTHON) tools/check_doc_links.py

# The chase service: long-lived sessions with incremental resume and a
# digest-keyed verdict cache over a stdlib asyncio HTTP front end.  See
# docs/SERVICE.md for the endpoint reference.
serve:
	$(PYTHON) -m repro.service --host $(HOST) --port $(PORT)

# The service load bench + equivalence gate, standalone (the same section
# `make bench`/`make bench-quick` folds into BENCH_chase.json).
bench-service:
	$(PYTHON) benchmarks/bench_service.py --quick

# Per-workload telemetry summary of the last bench report (rounds,
# trigger accounting, cache hit rate); run `make bench`
# or `make bench-quick` first.  See docs/OBSERVABILITY.md.
stats:
	$(PYTHON) -m repro.obs.report BENCH_chase.json

# Tier-1 under coverage.py with an enforced floor on the chase kernel
# (src/repro/chase/) and an HTML report in htmlcov/.  The offline dev
# container does not ship coverage; skip with a note there instead of
# failing — CI installs it and enforces the floor (docs/CI.md).
coverage:
	@if $(PYTHON) -m coverage --version >/dev/null 2>&1; then \
		$(PYTHON) -m coverage run --source=src/repro -m pytest -x -q && \
		$(PYTHON) -m coverage html -d htmlcov && \
		$(PYTHON) -m coverage report --include='src/repro/chase/*' \
			--fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "coverage not installed; skipping (CI enforces the floor)"; \
	fi
