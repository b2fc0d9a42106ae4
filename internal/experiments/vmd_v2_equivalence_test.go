package experiments

import (
	"bytes"
	"testing"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/metrics"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
)

// The golden v1≡v2 suite: the VMD store rewrite is a layered upgrade, and
// with every mechanism at its v1-equivalent setting (single-page batches,
// readahead off, flat tier, round-robin placement) the paper experiments
// must produce byte-identical results, traces and metric series to the
// zero-config store. These tests diff exactly that: the zero StoreConfig
// against the explicit v1-equivalent one.

// v1EquivalentStore is the explicit spelling of the v1 defaults: the store
// code paths run with the config populated, but every mechanism is at its
// identity setting.
func v1EquivalentStore() vmd.StoreConfig {
	return vmd.StoreConfig{BatchPages: 1, Placement: vmd.PlaceRoundRobin}
}

// quickstartV2Outputs runs the traced quickstart on the given store config
// and renders every output stream to bytes: per-technique results, the
// trace JSONL and the metrics JSONL of the observed run.
func quickstartV2Outputs(t *testing.T, store vmd.StoreConfig) ([]core.Result, []byte, []byte) {
	t.Helper()
	tr := trace.New(1 << 14)
	reg := metrics.NewRegistry()
	cfg := DefaultQuickstartConfig()
	cfg.Scale = 0.05
	cfg.Seed = 7
	cfg.Trace = tr
	cfg.Metrics = reg
	cfg.VMD = store
	var results []core.Result
	for _, r := range RunQuickstart(cfg) {
		results = append(results, r.Result)
	}
	var tj, mj bytes.Buffer
	if err := trace.WriteJSONL(&tj, tr); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&mj); err != nil {
		t.Fatal(err)
	}
	return results, tj.Bytes(), mj.Bytes()
}

func TestVMDv2DefaultsMatchV1Quickstart(t *testing.T) {
	refResults, refTrace, refMetrics := quickstartV2Outputs(t, vmd.StoreConfig{})
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatalf("reference quickstart produced no observability output")
	}
	results, tj, mj := quickstartV2Outputs(t, v1EquivalentStore())
	for i := range refResults {
		if results[i] != refResults[i] {
			t.Errorf("%s result diverged under v1-equivalent store:\n got %+v\nwant %+v",
				refResults[i].Technique, results[i], refResults[i])
		}
	}
	if !bytes.Equal(tj, refTrace) {
		t.Errorf("trace JSONL diverged under v1-equivalent store (%d vs %d bytes)", len(tj), len(refTrace))
	}
	if !bytes.Equal(mj, refMetrics) {
		t.Errorf("metrics JSONL diverged under v1-equivalent store (%d vs %d bytes)", len(mj), len(refMetrics))
	}
}

// TestVMDv2DefaultsMatchV1Recovery proves the identity holds through the
// faulted path too: crash, restart, repair and the loss window all replay
// exactly with the v2 store at its v1 settings.
func TestVMDv2DefaultsMatchV1Recovery(t *testing.T) {
	run := func(store vmd.StoreConfig) []RecoveryResult {
		cfg := DefaultRecoveryConfig()
		cfg.Scale = 0.05
		cfg.Seed = 7
		cfg.ReplicaFactors = []int{2}
		cfg.VMD = store
		return RunRecovery(cfg)
	}
	ref := run(vmd.StoreConfig{})
	got := run(v1EquivalentStore())
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("K=%d row diverged under v1-equivalent store:\n got %+v\nwant %+v",
				ref[i].Replicas, got[i], ref[i])
		}
	}
}

func TestVMDv2DefaultsMatchV1SizeSweep(t *testing.T) {
	run := func(store vmd.StoreConfig) []SizeSweepRow {
		cfg := DefaultSizeSweepConfig()
		cfg.Scale = 0.05
		cfg.Seed = 7
		cfg.VMSizes = []int64{8 * cluster.GiB}
		cfg.Parallelism = 1
		cfg.VMD = store
		return RunSizeSweep(cfg)
	}
	ref := run(vmd.StoreConfig{})
	got := run(v1EquivalentStore())
	if len(got) != len(ref) {
		t.Fatalf("%d rows vs %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("row %d diverged under v1-equivalent store:\n got %+v\nwant %+v", i, got[i], ref[i])
		}
	}
}

// TestRecoveryHashPlacementComposesWithReplication re-runs the crash
// scenario with the full v2 store (hash placement, batching, rebalance) and
// K=2: replication must still mask the crash completely — no lost pages and
// a completed migration — proving the ring placement and the repair/
// failover machinery compose.
func TestRecoveryHashPlacementComposesWithReplication(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	cfg.Scale = 0.05
	cfg.Seed = 7
	cfg.ReplicaFactors = []int{2}
	cfg.VMD = vmd.StoreConfig{
		BatchPages:           8,
		Placement:            vmd.PlaceHash,
		RebalanceBytesPerSec: 16 * cluster.MiB,
	}
	rows := RunRecovery(cfg)
	if len(rows) != 1 {
		t.Fatalf("expected one K=2 row, got %d", len(rows))
	}
	r := rows[0]
	if r.LostPages != 0 {
		t.Errorf("K=2 with hash placement lost %d pages; replication should mask the crash", r.LostPages)
	}
	if r.LostReads != 0 {
		t.Errorf("K=2 with hash placement served %d lost reads", r.LostReads)
	}
	if r.Result.TotalSeconds <= 0 {
		t.Errorf("migration did not complete: %+v", r.Result)
	}
}

// TestVMDSweepImprovement pins the sweep's headline: batching + prefetch
// must cut the demand-read tail and not lengthen the migration on the same
// seed.
func TestVMDSweepImprovement(t *testing.T) {
	cfg := DefaultVMDSweepConfig()
	cfg.Scale = 0.05
	cfg.Seed = 7
	rows := RunVMDSweep(cfg)
	if len(rows) < 3 {
		t.Fatalf("expected the full variant ladder, got %d rows", len(rows))
	}
	flat, prefetch := rows[0], rows[2]
	if flat.Variant != "v1 flat" || prefetch.Variant != "+prefetch" {
		t.Fatalf("unexpected ladder order: %q, %q", flat.Variant, prefetch.Variant)
	}
	if prefetch.ReadP99Ms >= flat.ReadP99Ms {
		t.Errorf("prefetch did not cut the read tail: p99 %.2fms vs flat %.2fms",
			prefetch.ReadP99Ms, flat.ReadP99Ms)
	}
	if prefetch.TotalSeconds > flat.TotalSeconds {
		t.Errorf("prefetch lengthened the migration: %.2fs vs flat %.2fs",
			prefetch.TotalSeconds, flat.TotalSeconds)
	}
	if prefetch.PrefetchHitPct <= 50 {
		t.Errorf("sequential scan should mostly hit staging, got %.1f%%", prefetch.PrefetchHitPct)
	}
}
