# Minimal CI entry points. `make verify` is what the gate runs.
# No ocamlformat in the toolchain image — formatting is by convention
# (see DESIGN.md §5), so there is no fmt target.

.PHONY: all build test verify bench bench-quick bench-exact bench-lp \
  bench-parallel bench-daemon bench-dynamic bench-regress \
  daemon-smoke clean fuzz fuzz-quick fuzz-replay

all: build

build:
	dune build

test:
	dune runtest

# Gate: build + every test group once, under one timeout so a regression
# that blows a search or a simplex up (the pool stress suite and the
# exact, LP and portfolio differential suites run here) fails fast instead
# of hanging the gate.  Then the parallel-determinism checks — the same
# experiment grid at --jobs 1 and --jobs 4 must produce byte-identical CSV,
# and so must the dynamic experiment at --jobs 1 and --jobs 2 (each
# simulation's online re-mapper keeps its own evaluation state, which no
# two domains may share), and `mfopt exact` on a generated n=16 chain at
# --jobs 1 and --jobs 2 apart from its timing line (the CLI's path to
# parallel root subtrees; both runs must prove optimality).  The LP-bounds
# example runs end to end and exits 1 when the MIP (9) branch-and-bound
# and the exact search disagree on its optimum.
verify:
	dune build && timeout 300 dune runtest
	dune exec bin/mfopt.exe -- experiment fig6 --replicates 2 --jobs 1 --csv > _build/verify_j1.csv
	dune exec bin/mfopt.exe -- experiment fig6 --replicates 2 --jobs 4 --csv > _build/verify_j4.csv
	cmp _build/verify_j1.csv _build/verify_j4.csv
	dune exec bin/mfopt.exe -- experiment dynamic --replicates 4 --jobs 1 --csv > _build/verify_dyn_j1.csv
	dune exec bin/mfopt.exe -- experiment dynamic --replicates 4 --jobs 2 --csv > _build/verify_dyn_j2.csv
	cmp _build/verify_dyn_j1.csv _build/verify_dyn_j2.csv
	dune exec bin/mfopt.exe -- generate --tasks 16 --types 3 --machines 5 --seed 2 > _build/verify_exact.txt
	for j in 1 2; do \
	  dune exec bin/mfopt.exe -- exact --jobs $$j _build/verify_exact.txt > _build/verify_exact_j$$j.raw && \
	  grep -q 'proved optimal in' _build/verify_exact_j$$j.raw && \
	  grep -v 'proved optimal in' _build/verify_exact_j$$j.raw > _build/verify_exact_j$$j.txt || exit 1; \
	done
	cmp _build/verify_exact_j1.txt _build/verify_exact_j2.txt
	timeout 60 dune exec examples/lp_bounds.exe
	timeout 60 sh scripts/daemon_smoke.sh
	$(MAKE) fuzz-quick
	$(MAKE) bench-regress
	timeout 120 sh scripts/regress_canary.sh
	@echo "verify OK: tests green, fig6 --jobs 1/4, dynamic --jobs 1/2 and exact --jobs 1/2 byte-identical, differential suites green, MIP (9) = DFS, daemon smoke green, fuzz matrix green, bench-regress green and its canary caught"

# Quick fuzz tier (deterministic, fixed seeds, <= 30 s): the full oracle
# matrix (the twelve oracles of DESIGN.md §12) plus the two injected-bug
# canaries and a replay of the committed seed corpus.
fuzz-quick:
	timeout 30 dune exec test/fuzz/fuzz_main.exe -- --quick

# Time-budgeted fuzz (default 120 s, override: make fuzz FUZZ_TIME=600).
# Each round draws fresh seeds; a failure writes a .repro seed file into
# test/fuzz/corpus — commit it to pin the regression.
FUZZ_TIME ?= 120
fuzz:
	dune build test/fuzz/fuzz_main.exe
	dune exec test/fuzz/fuzz_main.exe -- --time $(FUZZ_TIME)

# Replay the committed corpus only (fast; part of fuzz-quick as well).
fuzz-replay:
	dune exec test/fuzz/fuzz_main.exe -- --replay

# Full benchmark run (figures, ablations and every BENCH_*.json section).
# `--only NAME[,NAME...]` picks sections; an unknown name lists them.
bench:
	dune exec bench/main.exe

# Small-size benchmark: every section at the quick tier.
bench-quick:
	dune exec bench/main.exe -- --quick

# Exact-search benchmark only (writes BENCH_exact.json): node reduction vs
# the static baseline, solvable-size scan, --jobs identity, pruning ablation.
bench-exact:
	dune exec bench/main.exe -- --only exact

# Splitting-LP benchmark only (writes BENCH_lp.json): pivots, wall time
# and basis-reuse counters of the revised simplex for n in {10, 20, 40, 80},
# the fraction of seeds taking the rational fallback, exact-rational
# agreement on seed 1, and a scaling sweep up to n = 2000.
bench-lp:
	dune exec bench/main.exe -- --only lp

# Parallel-runtime benchmark only (writes BENCH_parallel.json): the
# fig5-shaped heuristic grid through the work-stealing pool at jobs
# 1/2/4/8 with the byte-identity assertion.  Always runs; on a 1-core
# machine the ratios are labelled overhead (speedup is not measurable).
bench-parallel:
	dune exec bench/main.exe -- --only parallel

# Daemon benchmark only (writes BENCH_daemon.json): a concurrent client
# storm over socketpairs against a live scheduler — wire throughput and
# latency percentiles plus the shared cross-request cache hit rate.
bench-daemon:
	dune exec bench/main.exe -- --only daemon

# Dynamic-simulation benchmark only (writes BENCH_dynamic.json): the
# balanced 56-task chain under machine-0 breakdowns (mtbf 48 periods,
# mttr 16, one crew), do-nothing vs the online re-mapper, with the
# recovered fraction of the availability gap (gate >= 0.8) and a
# bit-identical replay check.  Quick tier runs as part of `bench-quick`.
bench-dynamic:
	dune exec bench/main.exe -- --only dynamic

# Daemon smoke (part of `make verify`, under timeout 60): start mfoptd on
# a temp socket, run three concurrent clients (solve, mid-solve CANCEL,
# malformed line), re-send the solve as a cache hit, then SIGTERM and
# require exit 0 with a telemetry dump.
daemon-smoke:
	dune build bin/mfopt.exe bin/mfoptd.exe
	timeout 60 sh scripts/daemon_smoke.sh

# Regression gate over the committed benchmark numbers: the 28 checks of
# the table in bench/main.ml re-run their quick-tier measurements
# (revised-simplex pivot counts, the n=200 scaling row, the LP-bound
# exact-search scan at n in {14, 16, 18} / 500k nodes, and the
# breakdown/re-mapper scenario) and compare each with its committed
# {check, value} row in the "regress" arrays of BENCH_lp.json /
# BENCH_exact.json / BENCH_dynamic.json under the bound the table fixes.
# Fails on a broken bound, an unknown row or a missing row.  Part of
# `make verify`, followed by scripts/regress_canary.sh, which requires
# the gate to fail (exit 1) on a tightened and on a deleted row.
bench-regress:
	timeout 300 dune exec bench/main.exe -- --regress

clean:
	dune clean
