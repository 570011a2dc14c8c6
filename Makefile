# Convenience targets; the source of truth is dune.

.PHONY: all build test bench-ab scale-smoke verify clean

all: build

build:
	dune build @all

test:
	dune runtest

# Perf gate: the bench/e2e benchmark (BENCHMARK.json) on commit BASE
# (a temporary worktree) and on this checkout, seeds 1-5, alternating
# which side runs first; then bench/e2e's --compare, which exits 1 on
# any regressed (workload, metric) pair. A failed correctness check
# fails its run and so the target. Rows and the compare table stay in
# _bench_ab/.
#   make bench-ab BASE=origin/main
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>"; exit 2; }
	rm -rf _bench_ab && git worktree prune && mkdir -p _bench_ab
	git worktree add --detach _bench_ab/base $(BASE)
	set -e; trap 'git worktree remove --force _bench_ab/base' EXIT; \
	rows=$(CURDIR)/_bench_ab; a=; b=; \
	for s in 1 2 3 4 5; do \
	  if [ $$((s % 2)) = 1 ]; then order="A B"; else order="B A"; fi; \
	  for side in $$order; do \
	    if [ $$side = A ]; then root=_bench_ab/base; else root=.; fi; \
	    bash $$root/bench/e2e/run.sh --seed $$s --json $$rows/$$side-$$s.json; \
	  done; \
	  a=$$a$${a:+,}$$rows/A-$$s.json; b=$$b$${b:+,}$$rows/B-$$s.json; \
	done; \
	st=0; bash bench/e2e/run.sh --compare $$a $$b > _bench_ab/compare.txt 2>&1 || st=$$?; \
	cat _bench_ab/compare.txt; exit $$st

# large-n sampled dynamics smoke: a bounded n = 10^5 BA run that must
# print a verdict and certify nonzero candidate skips (the CI scale job
# runs the same command)
scale-smoke:
	dune exec bin/main.exe -- dynamics --engine scale --gen ba -n 100000 \
	  --seed 7 --max-rounds 24 --stats-json /tmp/bncg_scale_stats.json

# the tier-1 gate
verify: build
	dune runtest

clean:
	dune clean
