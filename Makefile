# Convenience targets; the source of truth is dune.

.PHONY: all build test bench bench-json bench-fresh bench-compare bench-baseline census-dist scale-smoke verify clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# trajectory snapshot: compare BENCH_*.json files across PRs
bench-json:
	dune exec bench/main.exe -- --quick --json BENCH_$(shell git rev-parse --short HEAD).json

# fresh timings of every row in BENCH_baseline.json; bench-compare and
# bench-baseline differ only in what they do with them
BENCH_FRESH = /tmp/bncg_bench_fresh.json /tmp/bncg_loadgen_fresh.json \
  /tmp/bncg_pipelined_fresh.json /tmp/bncg_atlas_fresh.json \
  /tmp/bncg_scaledyn_fresh.json /tmp/bncg_orderly_fresh.json

bench-fresh:
	dune exec bench/main.exe -- --quick --json /tmp/bncg_bench_fresh.json
	dune exec bench/loadgen.exe -- --json /tmp/bncg_loadgen_fresh.json
	dune exec bench/loadgen.exe -- --requests 100000 --pipeline 64 --conns 8 \
	  --json /tmp/bncg_pipelined_fresh.json
	rm -rf /tmp/bncg_atlas_bench
	dune exec bench/loadgen.exe -- --atlas /tmp/bncg_atlas_bench \
	  --json /tmp/bncg_atlas_fresh.json
	dune exec bench/scaledyn.exe -- --quick --json /tmp/bncg_scaledyn_fresh.json
	dune exec bench/orderlybench.exe -- --quick --json /tmp/bncg_orderly_fresh.json

# local version of the CI perf gate (tight default tolerance; CI passes
# a wider one because hosted runners are noisier)
bench-compare: bench-fresh
	dune exec bench/compare.exe -- --baseline BENCH_baseline.json $(BENCH_FRESH)

# refresh the committed baseline after an intentional perf change
bench-baseline: bench-fresh
	dune exec bench/compare.exe -- --merge BENCH_baseline.json $(BENCH_FRESH)

# distributed-census acceptance gate: healthy / flaky / crash / resume
# phases over real sockets, each gated on byte-identity with the
# sequential census
census-dist:
	dune exec bench/distcensus.exe

# large-n sampled dynamics smoke: a bounded n = 10^5 BA run that must
# print a verdict and certify nonzero candidate skips (the CI scale job
# runs the same command)
scale-smoke:
	dune exec bin/main.exe -- dynamics --engine scale --gen ba -n 100000 \
	  --seed 7 --max-rounds 24 --stats-json /tmp/bncg_scale_stats.json

# the tier-1 gate plus a quick bench smoke run with JSON output
verify: build
	dune runtest
	dune exec bench/main.exe -- --quick --json /tmp/bncg_bench_quick.json

clean:
	dune clean
