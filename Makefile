# Convenience entry points; `check` is the tier-1 gate.

.PHONY: all build check test ci perfbench-build bench bench-json audit clean

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
# invariant auditor and a build of the benchmark program. Kept as a make
# target so CI and a local pre-push run are the same command.
ci: check audit perfbench-build

# perfbench/pwbench.exe is enabled only under the perfbench profile, so
# `dune build` never compiles it; build it here (into its own build
# directory, leaving _build alone) so a library change that breaks the
# benchmark fails CI instead of the next benchmark run.
perfbench-build:
	dune build --profile perfbench --build-dir _build_perfbench ./perfbench/pwbench.exe

# Runtime invariant auditor over the full benchmark registry:
# per-mechanism structural checks (FMM shape/monotonicity, distribution
# mass, exceedance-curve shape, mechanism dominance) plus seeded
# Monte-Carlo fault-injection bound-violation search. Small geometry
# keeps it fast; drop the overrides for the paper-default 16x4.
audit:
	dune exec bin/pwcet_tool.exe -- audit --sets 8 --ways 2

# Full evaluation harness (paper tables/figures + Bechamel timings).
# Pass JOBS=N to set the worker-domain count (-j) explicitly.
JOBS ?=
bench:
	dune exec bench/main.exe -- $(if $(JOBS),-j $(JOBS))

# Machine-readable engine comparisons only: naive-vs-sliced FMM
# (BENCH_fmm.json), distribution-engine + pfail-sweep amortisation
# (BENCH_dist.json), artifact-store cold/warm/uncached timings
# (BENCH_store.json), the analysis daemon's cold/warm/concurrent
# latencies plus live dedup proof (BENCH_service.json), the batched
# fault-injection emulator's speedup + million-sample campaign results
# (BENCH_sim.json), the schedulability campaign's batched-vs-
# independent law-reuse speedup (BENCH_sched.json), and the one-pass
# grid engine's structural-sharing speedup (BENCH_grid.json). Every
# emitted file is then gated on carrying schema_version + git_commit.
bench-json:
	dune exec bench/main.exe -- --only fmm-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only dist-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only store-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only service-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only sim-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only sched-json $(if $(JOBS),-j $(JOBS))
	dune exec bench/main.exe -- --only grid-json $(if $(JOBS),-j $(JOBS))
	sh scripts/check_bench_json.sh

clean:
	dune clean
	rm -rf _build_perfbench
