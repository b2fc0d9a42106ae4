GO ?= go

.PHONY: build test bench lint vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Re-run the BENCH_kernel.json benchmarks: the raw single-engine tick
# rate, the 64-host sharded-cluster scaling run (1/2/4/8 shards), the
# VMD demand-read path (flat vs batched+readahead store) and one network
# tick with a fleet cell's flow mix.
# Compare the printed numbers against the history in BENCH_kernel.json.
bench:
	$(GO) test -run '^$$' -bench BenchmarkEngineTicksPerSecond -benchtime 3s -count 3 ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkShardedClusterTicksPerSecond -count 3 ./internal/cluster/
	$(GO) test -run '^$$' -bench BenchmarkVMDDemandRead -count 3 ./internal/vmd/
	$(GO) test -run '^$$' -bench BenchmarkNetworkTick -cpu 1 -count 10 ./internal/simnet/

# Run the agilelint suite (detrand, maporder, emitnil, unitcheck,
# tickdrift, shardsafe, plus the flow-sensitive dettaint, phasecheck and
# outcomecheck) over the whole repository through the vet driver — the
# same invocation CI's lint job uses. See DESIGN.md §"Statically
# enforced invariants" for what each analyzer proves.
lint:
	$(GO) build -o agilelint ./cmd/agilelint && $(GO) vet -vettool=./agilelint ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w cmd internal examples
