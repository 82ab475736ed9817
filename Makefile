# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint test test-norace race cover bench bench-selftest bench-pairs experiments fuzz fuzz-smoke clean

all: build lint test

build:
	go build ./...
	go vet ./...

# go vet and gofmt; CI runs both as separate steps. docs/LINTING.md maps
# each retired repo-specific analyzer to the test that holds its rule.
lint:
	go vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists files that are not gofmt-formatted:"; gofmt -l .; exit 1; }

# The race detector is the default test path.
test:
	go test -race ./...

# Opt-out for slow machines; CI and `make all` stay on the race path.
test-norace:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem ./...

# bench/ is a module of its own (bench/go.mod). The root `go test ./...`
# runs its vet and self-tests through TestBenchModuleCompiles; this runs
# the self-tests alone.
bench-selftest:
	go -C bench test ./...

# Judge a change against its parent: N alternating parent/change runs of
# the whole benchmark, the -compare table and the per-pair win counts.
#   make bench-pairs PARENT=HEAD~1 N=10 [WORKLOADS="tweet_text_local"]
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [N=10] [WORKLOADS=...]" >&2; exit 2; }
	bash scripts/bench-pairs.sh $(PARENT) $(N) $(WORKLOADS)

# Regenerate every paper table/figure (EXPERIMENTS.md documents them).
experiments:
	go run ./cmd/ssjoinbench

# Short fuzz pass over the codecs, snapshot decoders and tokenizers.
fuzz:
	go test -fuzz FuzzReaderNeverPanics -fuzztime 15s ./internal/wire/
	go test -fuzz FuzzRecordRoundTrip -fuzztime 15s ./internal/wire/
	go test -run '^$$' -fuzz FuzzResultBatchRoundTrip -fuzztime 15s ./internal/wire/
	go test -fuzz FuzzWordTokenizer -fuzztime 10s ./internal/tokens/
	go test -fuzz FuzzQGramTokenizer -fuzztime 10s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzDictionaryVsMap -fuzztime 10s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzLoadOrdering -fuzztime 10s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzCheckpointRead -fuzztime 15s ./internal/checkpoint/
	go test -run '^$$' -fuzz FuzzWALReplay -fuzztime 15s ./internal/wal/
	go test -fuzz FuzzJoinMatchesBruteForce -fuzztime 15s ./internal/offline/
	go test -fuzz FuzzIntersectKernels -fuzztime 15s ./internal/similarity/
	go test -run '^$$' -fuzz FuzzSigBoundSound -fuzztime 15s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzIndexVsBruteForce -fuzztime 15s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzWideSigVsBruteForce -fuzztime 15s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzPostTableVsMap -fuzztime 15s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzParseExposition -fuzztime 15s ./internal/obs/
	go test -run '^$$' -fuzz FuzzTopologyVsBruteForce -fuzztime 15s ./internal/topology/
	go test -run '^$$' -fuzz FuzzHelloSession -fuzztime 15s ./internal/remote/

# Fuzz sanity pass for CI: 18 targets at 2s each, ~60s in all on a 2-vCPU
# box with a warm build cache. The four bundle targets, the dictionary,
# ordering, checkpoint, WAL, exposition, topology and Hello-session targets
# and the result-batch target skip the package's unit tests (-run '^$$'),
# which the test step has already run.
fuzz-smoke:
	go test -fuzz FuzzReaderNeverPanics -fuzztime 2s ./internal/wire/
	go test -fuzz FuzzRecordRoundTrip -fuzztime 2s ./internal/wire/
	go test -run '^$$' -fuzz FuzzResultBatchRoundTrip -fuzztime 2s ./internal/wire/
	go test -fuzz FuzzWordTokenizer -fuzztime 2s ./internal/tokens/
	go test -fuzz FuzzQGramTokenizer -fuzztime 2s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzDictionaryVsMap -fuzztime 2s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzLoadOrdering -fuzztime 2s ./internal/tokens/
	go test -run '^$$' -fuzz FuzzCheckpointRead -fuzztime 2s ./internal/checkpoint/
	go test -run '^$$' -fuzz FuzzWALReplay -fuzztime 2s ./internal/wal/
	go test -fuzz FuzzJoinMatchesBruteForce -fuzztime 2s ./internal/offline/
	go test -fuzz FuzzIntersectKernels -fuzztime 2s ./internal/similarity/
	go test -run '^$$' -fuzz FuzzSigBoundSound -fuzztime 2s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzIndexVsBruteForce -fuzztime 2s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzWideSigVsBruteForce -fuzztime 2s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzPostTableVsMap -fuzztime 2s ./internal/bundle/
	go test -run '^$$' -fuzz FuzzParseExposition -fuzztime 2s ./internal/obs/
	go test -run '^$$' -fuzz FuzzTopologyVsBruteForce -fuzztime 2s ./internal/topology/
	go test -run '^$$' -fuzz FuzzHelloSession -fuzztime 2s ./internal/remote/

clean:
	rm -rf internal/*/testdata/fuzz
