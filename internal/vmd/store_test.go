package vmd

import (
	"fmt"
	"testing"

	"agilemig/internal/blockdev"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// newStoreRig is newRig with a store configuration applied before any
// server, client or namespace exists (Configure's contract).
func newStoreRig(t *testing.T, store StoreConfig, nServers int, capPages int64, nsPages int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.Configure(store)
	var servers []*Server
	for i := 0; i < nServers; i++ {
		name := fmt.Sprintf("srv%d", i)
		servers = append(servers, v.AddServer(name, net.NewNIC(name, 125_000_000), capPages))
	}
	client := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", nsPages)
	ns.AttachTo(client)
	return &rig{eng: eng, net: net, v: v, servers: servers, client: client, ns: ns}
}

// TestZeroStoreConfigIsV1 pins the store's identity setting: the zero
// StoreConfig and the explicit v1 spelling (single-page batches, round-robin
// placement) normalise to the same value, so every store code path sees one
// configuration and the v1 event sequence replays byte for byte.
func TestZeroStoreConfigIsV1(t *testing.T) {
	zero := StoreConfig{}.withDefaults()
	v1 := StoreConfig{BatchPages: 1, Placement: PlaceRoundRobin}.withDefaults()
	if zero != v1 {
		t.Fatalf("zero config normalises to %+v, the v1 spelling to %+v", zero, v1)
	}
}

func TestConfigureAfterBuildPanics(t *testing.T) {
	r := newRig(t, 1, 100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Configure after AddServer did not panic")
		}
	}()
	r.v.Configure(StoreConfig{BatchPages: 8})
}

func TestWriteBatchContiguous(t *testing.T) {
	r := newStoreRig(t, StoreConfig{BatchPages: 16}, 2, 1000, 100)
	done := false
	offs := make([]uint32, 16)
	for i := range offs {
		offs[i] = uint32(10 + i)
	}
	r.ns.WriteBatch(r.client, offs, func() { done = true })
	r.eng.RunSeconds(1)
	if !done {
		t.Fatal("batch write never acked")
	}
	if r.ns.Stored() != 16 {
		t.Fatalf("Stored = %d, want 16", r.ns.Stored())
	}
	for _, off := range offs {
		if !r.ns.HasPage(off) {
			t.Fatalf("offset %d missing after batch write", off)
		}
	}
	w, _, _ := r.client.Stats()
	if w != 16 {
		t.Fatalf("client wrote %d, want 16", w)
	}
	read := 0
	r.ns.ReadBatch(r.client, offs, func() { read++ })
	r.eng.RunSeconds(1)
	if read != 1 {
		t.Fatalf("batch read completions = %d, want 1", read)
	}
	_, rd, _ := r.client.Stats()
	if rd != 16 {
		t.Fatalf("client read %d pages, want 16", rd)
	}
}

func TestWriteBatchNonContiguousPanics(t *testing.T) {
	r := newStoreRig(t, StoreConfig{BatchPages: 8}, 1, 100, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("non-contiguous WriteBatch did not panic")
		}
	}()
	r.ns.WriteBatch(r.client, []uint32{1, 3}, nil)
}

func TestWriteBatchNACKFallsBackPerPage(t *testing.T) {
	// Both servers can hold the run's pages but neither can take the whole
	// batch: the batch NACKs around the pool, then degrades to per-page
	// writes that spread across both servers.
	r := newStoreRig(t, StoreConfig{BatchPages: 16}, 2, 10, 50)
	done := false
	offs := make([]uint32, 16)
	for i := range offs {
		offs[i] = uint32(i)
	}
	r.ns.WriteBatch(r.client, offs, func() { done = true })
	r.eng.RunSeconds(2)
	if !done {
		t.Fatal("batch write never completed after NACK fallback")
	}
	if r.ns.Stored() != 16 {
		t.Fatalf("Stored = %d, want 16", r.ns.Stored())
	}
	if r.servers[0].Used()+r.servers[1].Used() != 16 {
		t.Fatalf("pool holds %d+%d pages, want 16 total", r.servers[0].Used(), r.servers[1].Used())
	}
	_, _, retried := r.client.Stats()
	if retried == 0 {
		t.Fatal("expected NACK retries before the fallback")
	}
}

func TestWriteBatchReplicated(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.Configure(StoreConfig{BatchPages: 8})
	v.SetReplicas(2)
	for i := 0; i < 3; i++ {
		v.AddServer("srv", net.NewNIC("inter", 125_000_000), 1000)
	}
	client := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", 100)
	ns.AttachTo(client)
	done := false
	ns.WriteBatch(client, []uint32{4, 5, 6, 7, 8, 9, 10, 11}, func() { done = true })
	eng.RunSeconds(2)
	if !done {
		t.Fatal("replicated batch write never completed")
	}
	for off := uint32(4); off <= 11; off++ {
		if got := ns.CopiesOf(off); got != 2 {
			t.Fatalf("offset %d has %d copies, want 2", off, got)
		}
	}
}

func TestPrefetchServesSequentialStream(t *testing.T) {
	store := StoreConfig{BatchPages: 8, Readahead: ReadaheadConfig{Enabled: true}}
	r := newStoreRig(t, store, 2, 2000, 1024)
	for i := 0; i < 512; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	served := 0
	for i := 0; i < 256; i++ {
		r.ns.Read(r.client, uint32(i), func() { served++ })
		r.eng.RunSeconds(0.02)
	}
	if served != 256 {
		t.Fatalf("%d/256 sequential reads served", served)
	}
	issued, hits, misses, _ := r.ns.PrefetchStats()
	if issued == 0 {
		t.Fatal("sequential stream never triggered readahead")
	}
	if hits == 0 {
		t.Fatalf("no staging hits (issued %d, misses %d)", issued, misses)
	}
	_, _, staged, _, _ := r.client.ReadsByOrigin()
	if staged != hits {
		t.Fatalf("staged reads %d != prefetch hits %d", staged, hits)
	}
	if r.client.PrefetchedPages() == 0 {
		t.Fatal("no pages recorded as prefetched")
	}
}

func TestPrefetchInvalidatedByWrite(t *testing.T) {
	store := StoreConfig{Readahead: ReadaheadConfig{Enabled: true}}
	r := newStoreRig(t, store, 1, 2000, 512)
	for i := 0; i < 256; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	// Drive a stream far enough to stage a window ahead of offset 32.
	for i := 0; i < 32; i++ {
		r.ns.Read(r.client, uint32(i), nil)
		r.eng.RunSeconds(0.02)
	}
	if _, hits, _, _ := r.ns.PrefetchStats(); hits == 0 {
		t.Fatal("stream never hit staging; cannot test invalidation")
	}
	// Overwrite the pages ahead: staged copies are stale and must drop.
	for i := 32; i < 64; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(1)
	_, _, _, wasted := r.ns.PrefetchStats()
	if wasted == 0 {
		t.Fatal("invalidated staged pages not counted as wasted")
	}
	// The overwritten pages must read back (fresh copies, not stale staging).
	served := 0
	for i := 32; i < 64; i++ {
		r.ns.Read(r.client, uint32(i), func() { served++ })
		r.eng.RunSeconds(0.02)
	}
	if served != 32 {
		t.Fatalf("%d/32 reads after invalidation", served)
	}
}

func TestCtierStoresEvictsAndServes(t *testing.T) {
	// 8 RAM pages at compressRatio 3 hold 24 logical pages compressed.
	store := StoreConfig{Tiers: TierConfig{Enabled: true, CompressedCapPages: 8}}
	r := newStoreRig(t, store, 1, 1000, 100)
	r.client.SetLocalTier(true)
	done := 0
	for i := 0; i < 40; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(5)
	if done != 40 {
		t.Fatalf("%d/40 writes acked through the compressed tier", done)
	}
	if got := r.ns.CtierPages(); got != 24 {
		t.Fatalf("ctier holds %d pages, want its 24-page cap", got)
	}
	_, writebacks := r.ns.CtierStats()
	if writebacks != 16 {
		t.Fatalf("%d writebacks, want 16 evictions past the cap", writebacks)
	}
	if r.servers[0].Used() != 16 {
		t.Fatalf("server holds %d evicted pages, want 16", r.servers[0].Used())
	}
	// Every offset — compressed-local or evicted-remote — reads back, and
	// tier-resident reads count as ctier-origin.
	served := 0
	for i := 0; i < 40; i++ {
		r.ns.Read(r.client, uint32(i), func() { served++ })
	}
	r.eng.RunSeconds(5)
	if served != 40 {
		t.Fatalf("%d/40 reads served", served)
	}
	hits, _ := r.ns.CtierStats()
	if hits == 0 {
		t.Fatal("no reads served from the compressed tier")
	}
	_, rd, _ := r.client.Stats()
	remote, _, _, ctier, _ := r.client.ReadsByOrigin()
	if rd != 40 || remote+ctier != 40 {
		t.Fatalf("read accounting: total %d, remote %d, ctier %d", rd, remote, ctier)
	}
	// Freeing must release both tiers completely.
	for i := 0; i < 40; i++ {
		r.ns.Free(uint32(i))
	}
	r.eng.RunSeconds(1)
	if r.ns.Stored() != 0 || r.ns.CtierPages() != 0 {
		t.Fatalf("Stored=%d CtierPages=%d after freeing everything", r.ns.Stored(), r.ns.CtierPages())
	}
}

func TestTierScanDemotesColdPromotesHot(t *testing.T) {
	store := StoreConfig{Tiers: TierConfig{Enabled: true}}
	r := newStoreRig(t, store, 1, 1000, 100)
	disk := blockdev.New(r.eng, blockdev.Config{Name: "hdd", BytesPerSecond: 200_000_000, IOPS: 50_000})
	r.servers[0].AttachDisk(disk, 1000)
	for i := 0; i < 64; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(1)
	// Idle long past coldEpochs of tierEpochSeconds each: the scan
	// demotes everything to disk.
	r.eng.RunSeconds(2 * coldEpochs * tierEpochSeconds)
	demoted, _ := r.ns.TierStats()
	if demoted != 64 {
		t.Fatalf("demotions = %d, want all 64 cold pages", demoted)
	}
	if r.servers[0].Used() != 0 {
		t.Fatalf("server still holds %d pages in RAM after demotion", r.servers[0].Used())
	}
	// Reading a demoted page promotes it back to the RAM tier.
	served := false
	r.ns.Read(r.client, 7, func() { served = true })
	r.eng.RunSeconds(1)
	if !served {
		t.Fatal("demoted page never served")
	}
	_, promoted := r.ns.TierStats()
	if promoted != 1 {
		t.Fatalf("promotions = %d, want 1", promoted)
	}
	if r.servers[0].Used() != 1 {
		t.Fatalf("promoted page not back in RAM (used=%d)", r.servers[0].Used())
	}
}

func TestHashPlacementDeterministicSpread(t *testing.T) {
	build := func() *rig {
		return newStoreRig(t, StoreConfig{Placement: PlaceHash}, 4, 1000, 400)
	}
	used := func(r *rig) []int64 {
		var out []int64
		for i := 0; i < 400; i++ {
			r.ns.Write(r.client, uint32(i), nil)
		}
		r.eng.RunSeconds(5)
		for _, s := range r.servers {
			out = append(out, s.Used())
		}
		return out
	}
	a, b := used(build()), used(build())
	var total int64
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hash placement not deterministic: run1 %v, run2 %v", a, b)
		}
		if a[i] == 0 {
			t.Fatalf("server %d got nothing; ring not spreading: %v", i, a)
		}
		total += a[i]
	}
	if total != 400 {
		t.Fatalf("pool holds %d pages, want 400", total)
	}
}

func TestRebalanceOnJoinMovesTowardRing(t *testing.T) {
	store := StoreConfig{Placement: PlaceHash, RebalanceBytesPerSec: 64 << 20}
	r := newStoreRig(t, store, 2, 1000, 400)
	for i := 0; i < 300; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	joined := r.v.AddServer("late", r.net.NewNIC("inter-late", 125_000_000), 1000)
	r.eng.RunSeconds(10)
	if r.ns.Rebalanced() == 0 {
		t.Fatal("no pages rebalanced after a server joined")
	}
	if joined.Used() == 0 {
		t.Fatal("joining server received no rebalanced pages")
	}
	// Rebalance moves pages, it must not lose or duplicate them.
	if r.ns.Stored() != 300 {
		t.Fatalf("Stored = %d after rebalance, want 300", r.ns.Stored())
	}
	served := 0
	for i := 0; i < 300; i++ {
		r.ns.Read(r.client, uint32(i), func() { served++ })
	}
	r.eng.RunSeconds(5)
	if served != 300 {
		t.Fatalf("%d/300 reads after rebalance", served)
	}
}

// TestStagingFIFOStaysBounded scans a namespace sequentially through
// ReadBatch: readahead stages pages the scan then consumes, which leaves
// stale entries in the staging FIFO. The FIFO must stay within twice the
// staging budget however long the scan runs, so memory follows the
// staged pages rather than the number of reads.
func TestStagingFIFOStaysBounded(t *testing.T) {
	const pages, chunk = 8192, 8
	store := StoreConfig{BatchPages: 8, Readahead: ReadaheadConfig{Enabled: true}}
	r := newStoreRig(t, store, 2, pages, pages)
	for i := 0; i < pages; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	pf := r.ns.prefFor(r.client)
	offs := make([]uint32, chunk)
	served, longest := 0, 0
	for first := 0; first < pages; first += chunk {
		for j := range offs {
			offs[j] = uint32(first + j)
		}
		r.ns.ReadBatch(r.client, offs, func() { served++ })
		r.eng.RunSeconds(0.02)
		longest = max(longest, len(pf.order))
	}
	if served != pages/chunk {
		t.Fatalf("%d/%d batched reads served", served, pages/chunk)
	}
	if _, hits, _, _ := r.ns.PrefetchStats(); hits < pages/2 {
		t.Fatalf("only %d staging hits over a %d-page sequential scan", hits, pages)
	}
	if longest > 2*stagingPages {
		t.Fatalf("staging FIFO reached %d entries, budget %d", longest, stagingPages)
	}
}
