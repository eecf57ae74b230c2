GO ?= go

.PHONY: all build test race vet bench bench-smoke perf-gate trend profile clean

all: vet build test

build:
	$(GO) build ./...

# bench/ is its own module, which the root ./... skips; its tests run
# every benchmark workload at 1/8 scale against bench/golden.json.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# vet fails on any file gofmt would rewrite (bench/ included). bench/ is
# its own module, which the root ./... skips.
vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	cd bench && $(GO) vet ./... && $(GO) build ./...

# bench benchmarks the simulator itself — the serial event loop and
# 4-shard mode on the quick grid — into BENCH_sim.json (wall time,
# simulated cycles/sec, sharded speedup; the speedup needs a multi-core
# host, sharded counts are bit-identical anywhere).
bench:
	$(GO) run ./cmd/simbench -shards 4 -o BENCH_sim.json

# profile captures CPU and heap profiles of one quick-grid cell
# (As/tt on an 8-PE FINGERS chip — long enough to dominate startup,
# short enough to iterate on). Inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/fingersim -graph As -pattern tt -arch fingers -pes 8 \
		-cpuprofile cpu.prof -memprofile mem.prof

# bench-smoke compiles and runs every benchmark once — the CI guard that
# keeps the benchmark suite from bit-rotting without paying full runtime.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# perf-gate runs bench/ on BASE and on the working tree in alternating
# pairs on this host, and fails when the change is significantly slower
# (scripts/perf-gate.sh). Usage: make perf-gate BASE=origin/main
perf-gate:
	bash scripts/perf-gate.sh $(BASE)

# trend renders the observability report over every artifact in the
# checkout — the committed BENCH_sim.json plus any *.jsonl run logs the
# CLIs have appended (fingersim/experiments/mine -json, simbench -o) —
# as terminal tables, a self-contained TREND.html, and a
# machine-readable fingers.trend/v2 TREND.json. It reports one series
# per run configuration and flags nothing: speed is judged by
# perf-gate, modelled cycles by the timing goldens.
trend:
	$(GO) run ./cmd/fingerstat -dir . -html TREND.html -json TREND.json

clean:
	rm -f TREND.html TREND.json
