package vmd

import (
	"testing"

	"agilemig/internal/blockdev"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// newFaultRig is newRig with replication and (optionally) fault tolerance
// armed before the namespace is created.
func newFaultRig(t *testing.T, nServers int, capPages int64, nsPages, k int, ftTimeout float64) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.SetReplicas(k)
	if ftTimeout > 0 {
		v.EnableFaultTolerance(ftTimeout)
	}
	var servers []*Server
	for i := 0; i < nServers; i++ {
		servers = append(servers, v.AddServer("srv", net.NewNIC("inter", 125_000_000), capPages))
	}
	client := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", nsPages)
	ns.AttachTo(client)
	return &rig{eng: eng, net: net, v: v, servers: servers, client: client, ns: ns}
}

func (r *rig) spillDisk() *blockdev.Device {
	dev := blockdev.New(r.eng, blockdev.Config{
		Name: "ssd", BytesPerSecond: 500_000_000, IOPS: 100_000,
	})
	r.client.AttachSpill(dev)
	return dev
}

func TestReplicatedWritesPlaceKCopies(t *testing.T) {
	r := newFaultRig(t, 3, 1000, 100, 2, 0)
	done := 0
	for i := 0; i < 30; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(5)
	if done != 30 {
		t.Fatalf("%d/30 writes acked", done)
	}
	for i := 0; i < 30; i++ {
		if got := r.ns.CopiesOf(uint32(i)); got != 2 {
			t.Fatalf("offset %d holds %d copies, want 2", i, got)
		}
	}
	var used int64
	for _, s := range r.servers {
		used += s.Used()
	}
	if used != 60 {
		t.Fatalf("servers hold %d pages for 30 double-stored offsets", used)
	}
}

func TestCrashPromotesReplicasNoPagesLost(t *testing.T) {
	r := newFaultRig(t, 3, 1000, 100, 2, 0.25)
	for i := 0; i < 40; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	r.servers[0].Crash()
	if r.ns.LostPages() != 0 {
		t.Fatalf("%d pages lost despite K=2", r.ns.LostPages())
	}
	reads := 0
	for i := 0; i < 40; i++ {
		r.ns.Read(r.client, uint32(i), func() { reads++ })
	}
	r.eng.RunSeconds(5)
	if reads != 40 {
		t.Fatalf("%d/40 reads served after crash", reads)
	}
	if r.ns.LostReads() != 0 {
		t.Fatalf("%d reads hit lost pages", r.ns.LostReads())
	}
}

func TestInFlightReadFailsOverOnCrash(t *testing.T) {
	r := newFaultRig(t, 3, 1000, 100, 2, 0.05)
	for i := 0; i < 20; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	// Issue the reads and crash before any response leaves: the armed
	// timeouts must re-drive each read against the promoted replica.
	reads := 0
	for i := 0; i < 20; i++ {
		r.ns.Read(r.client, uint32(i), func() { reads++ })
	}
	r.servers[0].Crash()
	r.eng.RunSeconds(5)
	if reads != 20 {
		t.Fatalf("%d/20 in-flight reads completed after crash", reads)
	}
	if r.ns.FailoverReads() == 0 {
		t.Fatal("no read took the timeout-failover path")
	}
}

func TestCrashLosesUnreplicatedPages(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 100, 1, 0.25)
	for i := 0; i < 40; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	r.servers[0].Crash()
	lost := r.ns.LostPages()
	if lost == 0 {
		t.Fatal("crash of an unreplicated server lost nothing")
	}
	// Every offset must still resolve: surviving pages from the second
	// server, lost ones as counted zero-fill — never a panic or a hang.
	reads := 0
	for i := 0; i < 40; i++ {
		if !r.ns.HasPage(uint32(i)) {
			t.Fatalf("offset %d no longer registered", i)
		}
		r.ns.Read(r.client, uint32(i), func() { reads++ })
	}
	r.eng.RunSeconds(5)
	if reads != 40 {
		t.Fatalf("%d/40 reads completed", reads)
	}
	if r.ns.LostReads() != lost {
		t.Fatalf("LostReads = %d, want %d (one zero-fill per lost page)", r.ns.LostReads(), lost)
	}
}

func TestRereplicationRestoresRedundancy(t *testing.T) {
	r := newFaultRig(t, 3, 1000, 100, 2, 0.25)
	for i := 0; i < 30; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	r.servers[0].Crash()
	r.eng.RunSeconds(30)
	if r.ns.Rereplicated() == 0 {
		t.Fatal("background repair never ran")
	}
	for i := 0; i < 30; i++ {
		if got := r.ns.CopiesOf(uint32(i)); got != 2 {
			t.Fatalf("offset %d holds %d copies after repair window, want 2", i, got)
		}
	}
}

func TestRestartRejoinsEmptyAndWritable(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 100, 1, 0.25)
	for i := 0; i < 10; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	r.servers[0].Crash()
	if !r.servers[0].Down() {
		t.Fatal("server not down after Crash")
	}
	r.servers[0].Restart()
	if r.servers[0].Down() || r.servers[0].Used() != 0 {
		t.Fatalf("restarted server down=%v used=%d, want up and empty",
			r.servers[0].Down(), r.servers[0].Used())
	}
	done := 0
	for i := 50; i < 70; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(5)
	if done != 20 {
		t.Fatalf("%d/20 writes after restart", done)
	}
	if r.servers[0].Used() == 0 {
		t.Fatal("restarted server took no new writes")
	}
}

func TestDownServerSkippedForNewWrites(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 100, 1, 0)
	r.servers[0].Crash()
	done := 0
	for i := 0; i < 20; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(5)
	if done != 20 {
		t.Fatalf("%d/20 writes completed with one server down", done)
	}
	if r.servers[0].Used() != 0 || r.servers[1].Used() != 20 {
		t.Fatalf("placement %d/%d, want 0/20", r.servers[0].Used(), r.servers[1].Used())
	}
}

func TestPoolExhaustionSpillsInsteadOfPanicking(t *testing.T) {
	r := newFaultRig(t, 1, 10, 100, 1, 0)
	r.spillDisk()
	done := 0
	for i := 0; i < 30; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(10)
	if done != 30 {
		t.Fatalf("%d/30 writes acked past exhaustion", done)
	}
	if r.servers[0].Used() > 10 {
		t.Fatalf("server over capacity: %d", r.servers[0].Used())
	}
	if r.ns.SpilledPages() < 20 {
		t.Fatalf("SpilledPages = %d, want >= 20", r.ns.SpilledPages())
	}
	// Every offset — pooled or spilled — must read back.
	reads := 0
	for i := 0; i < 30; i++ {
		r.ns.Read(r.client, uint32(i), func() { reads++ })
	}
	r.eng.RunSeconds(10)
	if reads != 30 {
		t.Fatalf("%d/30 reads served", reads)
	}
}

func TestAllServersFullSpillWithoutLivelock(t *testing.T) {
	// Both servers NACK; the per-write NACK set must conclude the pool is
	// full after one rotation and spill, not bounce between them forever.
	r := newFaultRig(t, 2, 5, 100, 1, 0)
	r.spillDisk()
	done := 0
	for i := 0; i < 30; i++ {
		r.ns.Write(r.client, uint32(i), func() { done++ })
	}
	r.eng.RunSeconds(10)
	if done != 30 {
		t.Fatalf("%d/30 writes completed against a full pool", done)
	}
	if r.ns.SpilledPages() != 20 {
		t.Fatalf("SpilledPages = %d, want 20", r.ns.SpilledPages())
	}
	_, _, retried := r.client.Stats()
	if retried > 60 {
		t.Fatalf("%d NACK retries for 30 writes: livelock", retried)
	}
}

func TestFreeOfSpilledAndLostPages(t *testing.T) {
	// Freeing must clear spill and lost bookkeeping, not just pool slots:
	// a page faulted back in after degradation is gone for good.
	r := newFaultRig(t, 1, 5, 100, 1, 0.25)
	r.spillDisk()
	for i := 0; i < 10; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	if r.ns.SpilledPages() == 0 {
		t.Fatal("scenario did not spill")
	}
	r.servers[0].Crash()
	if r.ns.LostPages() == 0 {
		t.Fatal("scenario did not lose pages")
	}
	for i := 0; i < 10; i++ {
		r.ns.Free(uint32(i))
	}
	if r.ns.Stored() != 0 {
		t.Fatalf("Stored = %d after freeing everything", r.ns.Stored())
	}
	if r.ns.LostPages() != 0 {
		t.Fatalf("LostPages = %d after freeing everything", r.ns.LostPages())
	}
	for i := 0; i < 10; i++ {
		if r.ns.HasPage(uint32(i)) {
			t.Fatalf("offset %d still registered after Free", i)
		}
	}
}
