package vmd

import (
	"fmt"
	"testing"

	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// TestReplicasLandOnDistinctServers writes one-page and batched runs with
// K=2 on three servers under both placements: every offset's two copies
// must sit on different servers, or one crash loses both.
func TestReplicasLandOnDistinctServers(t *testing.T) {
	for _, pl := range []Placement{PlaceRoundRobin, PlaceHash} {
		t.Run(fmt.Sprintf("placement=%d", pl), func(t *testing.T) {
			eng := sim.NewEngine(1)
			net := simnet.New(eng)
			v := New(eng, net)
			v.Configure(StoreConfig{BatchPages: 8, Placement: pl})
			v.SetReplicas(2)
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("srv%d", i)
				v.AddServer(name, net.NewNIC(name, 125_000_000), 1000)
			}
			c := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
			ns := v.CreateNamespace("vm", 100)
			ns.AttachTo(c)
			for i := 0; i < 30; i++ {
				ns.Write(c, uint32(i), nil)
			}
			ns.WriteBatch(c, []uint32{40, 41, 42, 43, 44, 45, 46, 47}, nil)
			eng.RunSeconds(2)
			for off := uint32(0); off < 48; off++ {
				if off >= 30 && off < 40 {
					continue
				}
				cps := ns.copiesAt(off)
				if ns.placement[off] == noServer || len(cps) != 1 {
					t.Fatalf("offset %d: primary %d, %d replicas; want one of each", off, ns.placement[off], len(cps))
				}
				if cps[0].srv == ns.placement[off] {
					t.Errorf("offset %d: both copies on server %d", off, cps[0].srv)
				}
			}
		})
	}
}

// TestTransferAllocations pins the allocations of one complete transfer
// on a two-server pool: a one-page Write, a one-page Read, and an 8-page
// WriteBatch, each run to completion, with fault tolerance off and on.
// Transfers are pooled records, so once warm-up has filled the pools
// (with fault tolerance armed, each record waits for its timeout too) a
// transfer allocates nothing.
func TestTransferAllocations(t *testing.T) {
	skipUnderRace(t)
	const warm, runs = 50, 100
	const total = warm + runs + 1 // AllocsPerRun adds one warm-up call
	batch := make([]uint32, 8)
	cases := []struct {
		name    string
		prepare func(r *rig, i int)
		each    func(r *rig, i int, done func())
	}{
		{name: "Write",
			each: func(r *rig, i int, done func()) { r.ns.Write(r.client, uint32(i), done) }},
		{name: "Read",
			prepare: func(r *rig, i int) { r.ns.Write(r.client, uint32(i), nil) },
			each:    func(r *rig, i int, done func()) { r.ns.Read(r.client, uint32(i), done) }},
		{name: "WriteBatch8",
			each: func(r *rig, i int, done func()) {
				for j := range batch {
					batch[j] = uint32(8*i + j)
				}
				r.ns.WriteBatch(r.client, batch, done)
			}},
	}
	for _, tc := range cases {
		for _, ft := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ft=%v", tc.name, ft), func(t *testing.T) {
				timeout := 0.0
				if ft {
					timeout = DefaultFaultTimeout
				}
				r := newFaultRig(t, 2, 1<<16, 8*(total+1), 1, timeout)
				if tc.prepare != nil {
					for i := 0; i < total; i++ {
						tc.prepare(r, i)
					}
					r.eng.RunSeconds(1)
				}
				i, completed := 0, 0
				done := func() { completed++ }
				step := func() {
					tc.each(r, i, done)
					i++
					r.eng.RunSeconds(0.01)
				}
				for i < warm {
					step()
				}
				got := testing.AllocsPerRun(runs, step)
				if completed != total {
					t.Fatalf("%d of %d ops completed within their 0.01 s", completed, total)
				}
				if got != 0 {
					t.Errorf("%v allocations per op, want 0", got)
				}
			})
		}
	}
}

// TestLateCallbacksNeverReachReusedRecords arms fault tolerance on a pool
// whose first server is too slow to answer within the timeout: every copy
// sent there times out and is redirected, and its message lands long
// after its op has completed, while later writes and reads keep taking
// records from the pools. A record recycles only once its timer and its
// message have both run, so no late callback acts on a reused record:
// every op completes exactly once and the page, ack and capacity-hint
// accounting is exact.
func TestLateCallbacksNeverReachReusedRecords(t *testing.T) {
	const timeout, capPages, ops = 0.05, 1000, 16
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.EnableFaultTolerance(timeout)
	// A page message to the slow server takes ~0.08 s on the wire.
	slow := v.AddServer("slow", net.NewNIC("slow", 50_000), capPages)
	fast := v.AddServer("fast", net.NewNIC("fast", 125_000_000), capPages)
	c := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", 2*ops)
	ns.AttachTo(c)

	writes := make([]int, ops)
	for i := 0; i < ops; i++ {
		ns.Write(c, uint32(i), func() { writes[i]++ })
		eng.RunSeconds(0.005)
	}
	// Copies sent to the slow server have timed out and their ops have
	// completed, but their messages are still on the wire, holding their
	// records, while the reads below take records from the same pools.
	eng.RunSeconds(0.1)
	if v.copies.InUse() == 0 {
		t.Fatal("no copy record is held by a late message")
	}
	reads := make([]int, ops)
	for i := 0; i < ops; i++ {
		ns.Read(c, uint32(i), func() { reads[i]++ })
		eng.RunSeconds(0.005)
	}
	// Let every slow message land and every timer fire.
	eng.RunSeconds(0.7)
	for i := 0; i < ops; i++ {
		if writes[i] != 1 || reads[i] != 1 {
			t.Fatalf("offset %d: write completed %d times, read %d times; want once each", i, writes[i], reads[i])
		}
	}
	if stored, _, _ := slow.Stats(); stored != 0 || slow.Used() != 0 {
		t.Errorf("slow server stored %d pages, holds %d; every late copy must be ignored", stored, slow.Used())
	}
	if stored, served, _ := fast.Stats(); stored != ops || served != ops || fast.Used() != ops {
		t.Errorf("fast server stored %d, served %d, holds %d pages; want %d each", stored, served, fast.Used(), ops)
	}
	written, read, retried := c.Stats()
	if written != ops || read != ops || ns.Stored() != ops {
		t.Errorf("client wrote %d, read %d, namespace stores %d; want %d each", written, read, ns.Stored(), ops)
	}
	if retried == 0 {
		t.Error("no copy was redirected: the slow server never timed out")
	}
	if ns.FailoverReads() != 0 {
		t.Errorf("%d reads failed over; every read was served by the fast server in time", ns.FailoverReads())
	}
	// No gossip has refreshed the hints yet (the first is due at 1 s), so
	// each hint is its server's capacity less the pages charged to it and
	// never returned.
	if eng.NowSeconds() >= gossipInterval {
		t.Fatalf("test ran to %.2f s, past the first gossip", eng.NowSeconds())
	}
	if h := c.links[slow.idx].freeHint; h != capPages {
		t.Errorf("slow server hint %d, want %d: timed-out copies return their charge", h, capPages)
	}
	if h := c.links[fast.idx].freeHint; h != capPages-ops {
		t.Errorf("fast server hint %d, want %d", h, capPages-ops)
	}
	if v.ops.InUse() != 0 || v.copies.InUse() != 0 || v.xfers.InUse() != 0 || v.reqs.InUse() != 0 {
		t.Errorf("records still in use after every callback ran: ops %d, copies %d, xfers %d, reqs %d",
			v.ops.InUse(), v.copies.InUse(), v.xfers.InUse(), v.reqs.InUse())
	}
}
