.PHONY: all build test fuzz bench bench-smoke accuracy perf-gate serve-smoke serve-load tune-smoke lint loc clean

# worker domains for the bench harness
JOBS ?= $(shell nproc 2>/dev/null || echo 2)

all: build

build:
	dune build @all

test:
	dune runtest

# the QCheck pipeline fuzz suite, the lexer's totality property and the
# cache simulator's drain-equivalence properties, at 10x iterations
fuzz:
	QCHECK_LONG=1 dune exec test/test_fuzz.exe
	QCHECK_LONG=1 dune exec test/test_minic.exe
	QCHECK_LONG=1 dune exec test/test_cachesim.exe
	QCHECK_LONG=1 dune exec test/test_sampled.exe

# the full evaluation: every table and figure, BENCH.json in _artifacts/
bench:
	dune exec bench/main.exe -- --jobs $(JOBS)

# a fast slice for CI: Table 1, one Table 3 row at each fidelity, and
# the engine oracle on that row. The compare step fails if the sampled
# artifact strays outside the accuracy bounds against the exact one
# (accuracy mode); the backends step fails if the tree-walking
# reference and the compiled engine differ in output, steps, event
# stream or any cache counter on 179.art's original or PBO-planned
# program at ref args
bench-smoke:
	dune exec bench/main.exe -- table1 --jobs 2 \
	  --out _artifacts/BENCH-table1.json
	dune exec bench/main.exe -- table3 --only 179.art --jobs 2 \
	  --out _artifacts/BENCH-table3-smoke.json
	dune exec bench/main.exe -- table3 --only 179.art --jobs 2 \
	  --fidelity sampled --out _artifacts/BENCH-table3-sampled.json
	dune exec bench/compare.exe -- _artifacts/BENCH-table3-smoke.json \
	  _artifacts/BENCH-table3-sampled.json
	dune exec bench/main.exe -- backends --only 179.art

# the full-size roster accuracy gate: Table 3 on the compiled engine
# at exact and at sampled fidelity, then compare.exe's accuracy mode
# on the two artifacts: per-row miss-rate deltas, equal steps and
# accesses, speedup signs, and the ACCURACY.json report
accuracy:
	dune exec bench/main.exe -- table3 --jobs $(JOBS) --fidelity exact \
	  --out _artifacts/BENCH-accuracy-exact.json
	dune exec bench/main.exe -- table3 --jobs $(JOBS) --fidelity sampled \
	  --out _artifacts/BENCH-accuracy-sampled.json
	dune exec bench/compare.exe -- --out _artifacts/ACCURACY.json \
	  _artifacts/BENCH-accuracy-exact.json \
	  _artifacts/BENCH-accuracy-sampled.json

# measure-phase throughput and profile-time gate: three fresh
# full-roster exact runs against the committed baseline
# (ci/PERF-BASELINE.json), failing when the median of the three
# regresses by >20% in aggregate measure_msteps_per_s or in total
# profile time; one run caught by a load spike does not decide it.
# Run serially (jobs 1) so the throughput numbers are not distorted by
# overlap.
perf-gate:
	for i in 1 2 3; do \
	  dune exec bench/main.exe -- table3 --jobs 1 --fidelity exact \
	    --out _artifacts/BENCH-perfgate-$$i.json || exit 1; \
	done
	dune exec bench/perfgate.exe -- ci/PERF-BASELINE.json \
	  _artifacts/BENCH-perfgate-1.json _artifacts/BENCH-perfgate-2.json \
	  _artifacts/BENCH-perfgate-3.json

# the advice daemon end to end: start it on a scratch socket, drive one
# advise + one bench + stats through the CLI client, plus a bench miss
# whose 1 ms deadline must expire (client exit 3, [timeout]) while the
# shutdown after it still drains, then hammer it with the load
# generator and require a warm cache (SERVE.json lands in _artifacts/)
serve-smoke:
	dune build bin/slopt.exe bench/loadgen.exe
	set -e; \
	SLOPT=_build/default/bin/slopt.exe; \
	SOCK=$$(mktemp -u /tmp/slo-smoke-XXXXXX.sock); \
	$$SLOPT serve --socket $$SOCK & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true' EXIT; \
	$$SLOPT client advise --socket $$SOCK --name 179.art; \
	$$SLOPT client bench --socket $$SOCK --name 179.art; \
	rc=0; $$SLOPT client bench --socket $$SOCK --name 179.art --scheme spbo \
	  --deadline-ms 1 || rc=$$?; \
	test $$rc -eq 3; \
	$$SLOPT client stats --socket $$SOCK; \
	$$SLOPT client shutdown --socket $$SOCK; \
	wait $$SRV; \
	trap - EXIT
	_build/default/bench/loadgen.exe --clients 4 --rounds 2 \
	  --check-hit-rate 90 --out _artifacts/SERVE.json

# the serving layer under open-loop (Poisson) load, three gated runs:
# (1) a latency-vs-load sweep over two offered rates against a TCP
# daemon on the warm advise path, gated on a >= 90% result-cache hit
# rate; (2) a restart onto the same --cache-dir, gated on the warmup
# being served from the persistent cache; (3) a deliberate overload of
# the compute pool, gated on bench being shed with structured
# overloaded replies (and zero transport errors) while cached advise
# keeps flowing. Offered rates stay modest because shared CI runners
# cannot hold a tight schedule; the latency-vs-load curve lands in
# SERVE.json for inspection rather than pass/fail.
serve-load:
	dune build bench/loadgen.exe
	rm -rf _artifacts/serve-cache
	_build/default/bench/loadgen.exe --mode open --tcp --clients 4 \
	  --window 256 --rates 2000,5000 --duration-s 5 \
	  --cache-dir _artifacts/serve-cache \
	  --check-hit-rate 90 --out _artifacts/SERVE.json
	_build/default/bench/loadgen.exe --mode open --tcp --clients 2 \
	  --window 64 --rates 1000 --duration-s 2 \
	  --cache-dir _artifacts/serve-cache --check-disk-warm \
	  --check-hit-rate 90 --out _artifacts/SERVE-restart.json
	_build/default/bench/loadgen.exe --mode open --tcp --clients 2 \
	  --window 64 --rates 300 --duration-s 3 --kind shed \
	  --high-watermark 2 --low-watermark 1 --expect-shed \
	  --out _artifacts/SERVE-shed.json

# autotuner smoke: one roster entry (sphinx, whose candidate space the
# tuner searches in ~30s and strictly improves over the heuristic) through
# the full candidate space under a generous anytime budget, at two
# worker counts. Gates: found never worse than the heuristic, at least
# one strict improvement, and byte-identical winners at --jobs 2 vs
# --jobs 1 (the determinism contract). TUNE-smoke.json in _artifacts/.
tune-smoke:
	dune exec bench/tunebench.exe -- --only sphinx --jobs 2 \
	  --verify-jobs 1 --budget-ms 300000 --check-improved 1 \
	  --out _artifacts/TUNE-smoke.json

# source-located layout diagnostics over the example programs and the
# whole benchmark roster, compared against the checked-in golden list:
# a finding not on ci/lint-golden.txt fails the build. The merged SARIF
# document lands in _artifacts/ for upload.
lint:
	dune build bin/slopt.exe
	mkdir -p _artifacts
	_build/default/bin/slopt.exe check examples/check_demo.mc \
	  examples/pool_demo.mc --roster \
	  --golden ci/lint-golden.txt --sarif _artifacts/LINT.sarif

# tracked line count per top-level source directory, the net line
# count a change is measured by; from git ls-files, so build outputs
# and untracked files never count
loc:
	@for d in lib bin bench test; do \
	  printf '%-6s %7d\n' $$d $$(git ls-files -z $$d | xargs -0 cat | wc -l); \
	done

clean:
	dune clean
