package vmd

import (
	"testing"

	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

type rig struct {
	eng     *sim.Engine
	net     *simnet.Network
	v       *VMD
	servers []*Server
	client  *Client
	ns      *Namespace
}

func newRig(t *testing.T, nServers int, capPages int64, nsPages int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	var servers []*Server
	for i := 0; i < nServers; i++ {
		nic := net.NewNIC("inter", 125_000_000)
		servers = append(servers, v.AddServer("srv", nic, capPages))
	}
	cnic := net.NewNIC("host", 125_000_000)
	client := v.NewClient("host", cnic, 0)
	ns := v.CreateNamespace("vm1", nsPages)
	ns.AttachTo(client)
	return &rig{eng: eng, net: net, v: v, servers: servers, client: client, ns: ns}
}

func TestWriteThenRead(t *testing.T) {
	r := newRig(t, 2, 1000, 100)
	wrote, read := false, false
	r.ns.Write(r.client, 7, func() { wrote = true })
	r.eng.RunSeconds(0.1)
	if !wrote {
		t.Fatal("write never acked")
	}
	if !r.ns.HasPage(7) || r.ns.Stored() != 1 {
		t.Fatal("placement not recorded")
	}
	r.ns.Read(r.client, 7, func() { read = true })
	r.eng.RunSeconds(0.1)
	if !read {
		t.Fatal("read never completed")
	}
	w, rd, _ := r.client.Stats()
	if w != 1 || rd != 1 {
		t.Fatalf("client stats %d/%d", w, rd)
	}
}

func TestReadUnwrittenPanics(t *testing.T) {
	r := newRig(t, 1, 100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("read of unwritten offset did not panic")
		}
	}()
	r.ns.Read(r.client, 3, nil)
}

// TestAddServerPanicsPastOneByteLimit: a server's index is one byte in the
// placement table, so the pool refuses a server past maxServers, which
// stays below the noServer sentinel. Only AddServer runs: no client, no
// namespace, no traffic.
func TestAddServerPanicsPastOneByteLimit(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	nic := net.NewNIC("inter", 125_000_000)
	for i := 0; i < maxServers; i++ {
		if s := v.AddServer("srv", nic, 1); s.idx == noServer {
			t.Fatalf("server %d got the noServer index", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("server %d was accepted", maxServers+1)
		}
	}()
	v.AddServer("srv", nic, 1)
}

func TestDetachedWritePanics(t *testing.T) {
	r := newRig(t, 1, 100, 10)
	r.ns.Detach(r.client)
	defer func() {
		if recover() == nil {
			t.Fatal("write on detached namespace did not panic")
		}
	}()
	r.ns.Write(r.client, 0, nil)
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	r := newRig(t, 4, 1000, 400)
	for i := 0; i < 400; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(5)
	for _, s := range r.servers {
		if s.Used() < 80 || s.Used() > 120 {
			t.Fatalf("server holds %d pages, want ~100 (round-robin)", s.Used())
		}
	}
}

func TestOverwriteStaysOnSameServer(t *testing.T) {
	r := newRig(t, 3, 1000, 10)
	r.ns.Write(r.client, 5, nil)
	r.eng.RunSeconds(0.1)
	var before []int64
	for _, s := range r.servers {
		before = append(before, s.Used())
	}
	for i := 0; i < 5; i++ {
		r.ns.Write(r.client, 5, nil)
		r.eng.RunSeconds(0.1)
	}
	for i, s := range r.servers {
		if s.Used() != before[i] {
			t.Fatalf("overwrite changed allocation on server %d: %d -> %d", i, before[i], s.Used())
		}
	}
	if r.ns.Stored() != 1 {
		t.Fatalf("Stored = %d after overwrites", r.ns.Stored())
	}
}

func TestAllocateOnWriteOnly(t *testing.T) {
	r := newRig(t, 2, 1000, 100)
	// Creating the namespace must not reserve anything.
	for _, s := range r.servers {
		if s.Used() != 0 {
			t.Fatal("namespace creation reserved server memory")
		}
	}
}

func TestFullServerNACKAndRetry(t *testing.T) {
	// First server has capacity 2; second has plenty. After the first
	// fills, writes must land on the second (via hint or NACK retry).
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	small := v.AddServer("small", net.NewNIC("i1", 125_000_000), 2)
	big := v.AddServer("big", net.NewNIC("i2", 125_000_000), 1000)
	client := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", 100)
	ns.AttachTo(client)
	done := 0
	for i := 0; i < 50; i++ {
		ns.Write(client, uint32(i), func() { done++ })
	}
	eng.RunSeconds(10)
	if done != 50 {
		t.Fatalf("only %d/50 writes completed", done)
	}
	if small.Used() > 2 {
		t.Fatalf("small server over capacity: %d", small.Used())
	}
	if big.Used() != 50-small.Used() {
		t.Fatalf("big server holds %d, small %d", big.Used(), small.Used())
	}
}

func TestNamespacePortability(t *testing.T) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.AddServer("srv", net.NewNIC("i", 125_000_000), 1000)
	src := v.NewClient("src", net.NewNIC("src", 125_000_000), 0)
	dst := v.NewClient("dst", net.NewNIC("dst", 125_000_000), 0)
	ns := v.CreateNamespace("vm", 100)
	ns.AttachTo(src)
	ns.Write(src, 42, nil)
	eng.RunSeconds(0.5)
	// Migrate: detach from source, attach at destination, read the page.
	ns.Detach(src)
	if ns.AttachedTo(src) || ns.AttachCount() != 0 {
		t.Fatal("still attached")
	}
	ns.AttachTo(dst)
	got := false
	ns.Read(dst, 42, func() { got = true })
	eng.RunSeconds(0.5)
	if !got {
		t.Fatal("page unreachable from destination after re-attach")
	}
	_, rd, _ := dst.Stats()
	if rd != 1 {
		t.Fatalf("dst client read count %d", rd)
	}
}

func TestDestroyFreesServerMemory(t *testing.T) {
	r := newRig(t, 2, 1000, 100)
	for i := 0; i < 20; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(2)
	total := r.servers[0].Used() + r.servers[1].Used()
	if total != 20 {
		t.Fatalf("stored %d pages", total)
	}
	r.ns.Destroy()
	if r.servers[0].Used()+r.servers[1].Used() != 0 {
		t.Fatal("Destroy left pages allocated")
	}
	if r.ns.Stored() != 0 || r.ns.AttachCount() != 0 {
		t.Fatal("namespace state not reset")
	}
}

func TestVMDTrafficUsesNetwork(t *testing.T) {
	r := newRig(t, 1, 1000, 100)
	for i := 0; i < 10; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(1)
	// 10 page messages should have left the client NIC (plus acks inbound).
	sent := int64(10 * PageMsgBytes)
	if got := nicSent(r); got < sent {
		t.Fatalf("client NIC sent %d bytes, want >= %d", got, sent)
	}
}

func nicSent(r *rig) int64 {
	// The client's NIC is the one named "host".
	return r.clientNIC().BytesSent()
}

func (r *rig) clientNIC() *simnet.NIC { return r.client.nic }

func TestReadLatencyReflectsNetworkRTT(t *testing.T) {
	// With a 5-tick one-way latency, a read should take at least 2*(5+1)
	// ticks (request + response, store-and-forward).
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.AddServer("srv", net.NewNIC("i", 125_000_000), 100)
	c := v.NewClient("host", net.NewNIC("h", 125_000_000), 5)
	ns := v.CreateNamespace("vm", 10)
	ns.AttachTo(c)
	ns.Write(c, 1, nil)
	eng.RunSeconds(0.5)
	start := eng.Now()
	var done sim.Time
	ns.Read(c, 1, func() { done = eng.Now() })
	eng.RunSeconds(0.5)
	if done-start < 12 {
		t.Fatalf("read RTT %d ticks, want >= 12", done-start)
	}
}

func TestWritePastEndPanics(t *testing.T) {
	r := newRig(t, 1, 100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	r.ns.Write(r.client, 10, nil)
}

// TestReadCountAccountsEveryOrigin pins the Stats read-count contract: the
// client's read total must equal the sum of the per-origin counters, and
// every origin — remote pool, local spill disk, zero-fill of lost pages —
// must be included. (The v1 counter missed spill and failover-path reads.)
func TestReadCountAccountsEveryOrigin(t *testing.T) {
	r := newFaultRig(t, 1, 10, 100, 1, 0.25)
	r.spillDisk()
	for i := 0; i < 30; i++ {
		r.ns.Write(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(10)
	// First pass: 10 pooled (remote) + 20 spilled (spill origin).
	for i := 0; i < 30; i++ {
		r.ns.Read(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(10)
	// Crash the only server: its 10 pages are lost; the second pass serves
	// 20 from spill and zero-fills 10.
	r.servers[0].Crash()
	for i := 0; i < 30; i++ {
		r.ns.Read(r.client, uint32(i), nil)
	}
	r.eng.RunSeconds(10)
	_, read, _ := r.client.Stats()
	remote, spill, staged, ctier, zero := r.client.ReadsByOrigin()
	if sum := remote + spill + staged + ctier + zero; read != sum {
		t.Fatalf("Stats read total %d != origin sum %d (remote %d spill %d staged %d ctier %d zero %d)",
			read, sum, remote, spill, staged, ctier, zero)
	}
	if read != 60 {
		t.Fatalf("read total %d, want 60", read)
	}
	if remote == 0 || spill == 0 || zero == 0 {
		t.Fatalf("expected remote, spill and zero-fill origins all exercised: remote %d spill %d zero %d",
			remote, spill, zero)
	}
}
