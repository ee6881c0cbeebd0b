# Developer entry points. `make check` is the extended tier-1 gate
# (see ROADMAP.md): vet + build + full tests, plus race-detector runs of
# the packages with concurrency-sensitive bookkeeping.

GO ?= go

.PHONY: check build test vet race cruzvet bench gobench scale-smoke migrate-smoke ec-smoke fuzz-smoke perf-smoke loc trace-demo

check: vet cruzvet build test race

vet:
	$(GO) vet ./...

# cruzvet is the in-tree determinism-and-invariant lint suite
# (internal/analysis, driven by cmd/cruzvet): no wall-clock/ambient
# entropy in sim-side packages, no map-order leaking into sim-visible
# state, spans ended on every path, no lock-order cycles, pool buffers
# returned exactly once, ctl ops always completed, trace contexts
# propagated, no dropped errors on sim-side paths. The build fails on
# any unsuppressed finding and (-strict-allow) on any stale
# //cruzvet:allow directive; see DESIGN.md "Determinism rules".
cruzvet:
	$(GO) run ./cmd/cruzvet -stats -strict-allow ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/trace/... ./internal/metrics/... ./internal/ctl/... ./internal/core/... ./internal/coord/... ./internal/tcpip/... ./internal/ckpt/...

# Regenerate the machine-readable benchmark report and fail if the
# output is not valid BENCH_cruz.json-shaped JSON.
bench:
	$(GO) run ./cmd/cruzbench -exp none -json -jsonfile bench.tmp.json
	$(GO) run ./cmd/cruzbench -checkjson bench.tmp.json
	rm -f bench.tmp.json

# Micro-benchmark smoke: the tracer-overhead guard (trace=false must
# match the pre-tracing baseline) plus one iteration each of the hot-path
# micro-benchmarks (dirty-page tracking, event scheduling, pooled TCP
# bulk transfer) so CI notices when a benchmark rots. No thresholds —
# timings are informational; allocs/op on the scheduling and TCP
# benchmarks is the fast-path pooling ablation's headline.
gobench:
	$(GO) test -run XXX -bench=BenchmarkCheckpoint -benchmem .
	$(GO) test -run XXX -bench=BenchmarkDirtyTracking -benchtime=1x -benchmem ./internal/mem/
	$(GO) test -run XXX -bench=BenchmarkEngineSchedule -benchtime=1x -benchmem ./internal/sim/
	$(GO) test -run XXX -bench=BenchmarkTCPBulkTransfer -benchtime=1x -benchmem ./internal/tcpip/
	$(GO) test -run XXX -bench=BenchmarkMigrationStream -benchtime=1x -benchmem ./internal/ctl/

# Scaling smoke: the A9 flat-vs-tree ablation at reduced workload scale
# (n = 8/64/256, light slm ring). Exercises the hierarchical
# coordinator, the widened >255-node addressing, and the engine fast
# path end to end in a few seconds.
scale-smoke:
	$(GO) run ./cmd/cruzbench -exp scale -scale 0.25

# Migration smoke: the A10 live-vs-stop-and-copy ablation at reduced
# workload scale plus the cruzsim scenario where an established TCP
# connection must survive two live migrations. Exercises the pre-copy
# round loop, the residual freeze, and the address takeover end to end.
migrate-smoke:
	$(GO) run ./cmd/cruzbench -exp migrate -scale 0.25
	$(GO) run ./cmd/cruzsim -scenario migrate

# Erasure-coding smoke: the double-node-loss reconstruction test (4+2
# striping, kill a shard holder and a primary, byte-identical restore)
# plus the cruzsim scenario that narrates the same recovery. Exercises
# the RS codec, shard placement/distribution, the background pacer, and
# the reconstruct-restore path end to end.
ec-smoke:
	$(GO) test -run 'TestErasureCodedRecovery|TestECFallbackToReplication' -v .
	$(GO) run ./cmd/cruzsim -scenario failover -ec 4+2

# Fuzz smoke: ten seconds of native fuzzing on the shard-set decoder,
# which parses sets straight off the wire: every input must be rejected
# or yield a set whose ring positions all resolve without a panic.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeECSet -fuzztime=10s ./internal/ckpt

# Benchmark smoke: one-second runs of the svc, slm and failover workloads
# of the repository benchmark (cruzperf/, declared in BENCHMARK.json);
# failover runs the erasure-coded distribute and reconstruct path.
# cruzperf exits 1 when two iterations of a seed disagree on any
# virtual-time result (NONDETERMINISM) or an end-to-end metric has no
# samples (MISSING).
perf-smoke:
	bash cruzperf/run.sh --workload svc --seconds 1
	bash cruzperf/run.sh --workload slm --seconds 1
	bash cruzperf/run.sh --workload failover --seconds 1

# Non-test Go lines of the program: tracked .go files without tests,
# testdata/ fixtures or the cruzperf/ benchmark. ROADMAP aim 2 tracks it.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '\(^\|/\)testdata/' | grep -v '^cruzperf/' | xargs cat | wc -l

# Worked example from README: quickstart scenario with a Chrome trace.
trace-demo:
	$(GO) run ./cmd/cruzsim -scenario quickstart -nodes 3 -trace cruz-trace.json
