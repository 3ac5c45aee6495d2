# Convenience entry points; `check` is the tier-1 gate.

.PHONY: all build check test ci check-oracle perfbench-build release-dist bench audit clean

all: build

build:
	dune build

# Tier-1 gate: build + unit/property tests, then an intentionally
# budget-starved analysis that must *complete gracefully* (degraded but
# sound bounds, exit 0) rather than raise — the robustness contract of
# the degradation ladder — plus the end-to-end store crash-safety,
# daemon lifecycle, fault-injection validation, schedulability
# campaign, grid and chaos-injection gates.
check:
	dune build && dune runtest
	dune exec bin/pwcet_tool.exe -- analyze fibcall --engine ilp --exact \
	  --timeout 0.000001 --sets 8 --ways 2
	dune exec bin/pwcet_tool.exe -- sweep fibcall --pfail-grid 1e-5,1e-4,1e-3 \
	  --verify --sets 8 --ways 2
	sh scripts/check_store.sh ./_build/default/bin/pwcet_tool.exe
	sh scripts/check_service.sh ./_build/default/bin/pwcet_tool.exe
	sh scripts/check_sim.sh ./_build/default/bin/pwcet_tool.exe
	sh scripts/check_sched.sh ./_build/default/bin/pwcet_tool.exe
	sh scripts/check_grid.sh ./_build/default/bin/pwcet_tool.exe
	sh scripts/check_chaos.sh ./_build/default/bin/pwcet_tool.exe

test: check

# What CI runs (see .github/workflows/ci.yml): the tier-1 gate, the
# invariant auditor, the oracle-isolation check, a build of the
# benchmark program and, on a release build, the convolution kernel's
# and path engine's byte-identity tests, the CHMC classification tests
# and the cache-analysis tests (flat-state lattice property included).
# Kept as a make target so CI
# and a local pre-push run are the same command.
ci: check audit check-oracle perfbench-build release-dist

# The reference engines in test/oracle/ are test oracles, never a second
# engine the program can select: fail if bin/ or any library under lib/
# depends on the oracle library.
check-oracle:
	@if grep -nw oracle bin/dune lib/*/dune; then \
	  echo "check-oracle: bin/ and lib/ must not depend on the test-only oracle library"; \
	  exit 1; \
	fi

# perfbench/pwbench.exe is enabled only under the perfbench profile, so
# `dune build` never compiles it; build it here (into its own build
# directory, leaving _build alone) so a library change that breaks the
# benchmark fails CI instead of the next benchmark run.
perfbench-build:
	dune build --profile perfbench --build-dir _build_perfbench ./perfbench/pwbench.exe

# The benchmark measures a release build, while `dune runtest` checks
# the dev build. Rerun the byte-identity tests on a release build, in
# its own build directory: Prob.Dist's convolution (merge = reference
# on every kernel branch and the registry to_wire digest), the path
# engine (plan/eval = the per-call collapse, and the registry FMM/WCET
# digest), the CHMC (age thresholds = the whole-CFG oracle, on
# random programs and associativity vectors and on the registry) and
# the cache-analysis tests, among them the flat bitset Must/May states
# held equal to the Acs domain after every random access and join.
release-dist:
	dune build --profile release --build-dir _build_release \
	  ./test/test_dist_engine.exe ./test/test_path_engine.exe ./test/test_sliced.exe \
	  ./test/test_cache_analysis.exe
	cd _build_release/default/test && ./test_dist_engine.exe && ./test_path_engine.exe \
	  && ./test_sliced.exe test thresholds && ./test_cache_analysis.exe

# Runtime invariant auditor over the full benchmark registry:
# per-mechanism structural checks (FMM shape/monotonicity, distribution
# mass, exceedance-curve shape, mechanism dominance) plus seeded
# Monte-Carlo fault-injection bound-violation search. Small geometry
# keeps it fast; drop the overrides for the paper-default 16x4.
audit:
	dune exec bin/pwcet_tool.exe -- audit --sets 8 --ways 2

# The ablations that have no CLI command (path vs ILP engine,
# persistence off, convolution cap); EXPERIMENTS.md names the command
# behind every other result.
bench:
	dune exec bench/main.exe

clean:
	dune clean
	rm -rf _build_perfbench _build_release
