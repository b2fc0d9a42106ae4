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
// WriteBatch, each run to completion, with fault tolerance off and on
// (which adds one timeout closure per copy).
func TestTransferAllocations(t *testing.T) {
	const runs = 100
	batch := make([]uint32, 8)
	cases := []struct {
		name         string
		plain, armed float64
		prepare      func(r *rig, i int)
		each         func(r *rig, i int, done func())
	}{
		{name: "Write", plain: 5, armed: 6,
			each: func(r *rig, i int, done func()) { r.ns.Write(r.client, uint32(i), done) }},
		{name: "Read", plain: 4, armed: 5,
			prepare: func(r *rig, i int) { r.ns.Write(r.client, uint32(i), nil) },
			each:    func(r *rig, i int, done func()) { r.ns.Read(r.client, uint32(i), done) }},
		{name: "WriteBatch8", plain: 5, armed: 6,
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
				want := tc.plain
				if ft {
					timeout, want = DefaultFaultTimeout, tc.armed
				}
				r := newFaultRig(t, 2, 1<<16, 8*(runs+1), 1, timeout)
				if tc.prepare != nil {
					for i := 0; i <= runs; i++ {
						tc.prepare(r, i)
					}
					r.eng.RunSeconds(1)
				}
				i, completed := 0, 0
				done := func() { completed++ }
				got := testing.AllocsPerRun(runs, func() {
					tc.each(r, i, done)
					i++
					r.eng.RunSeconds(0.01)
				})
				// AllocsPerRun adds one warm-up call.
				if completed != runs+1 {
					t.Fatalf("%d of %d ops completed within their 0.01 s", completed, runs+1)
				}
				if got > want {
					t.Errorf("%v allocations per op, want <= %v", got, want)
				}
			})
		}
	}
}
