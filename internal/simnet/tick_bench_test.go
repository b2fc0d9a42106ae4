package simnet

import (
	"testing"

	"agilemig/internal/sim"
)

// BenchmarkNetworkTick measures one network tick with the flow mix of one
// fleet cell: a source, a destination, one VMD intermediate and a client
// machine, all on 1 Gbps NICs. Eleven flows have been opened. Three of
// them, an earlier migration's, are closed; four carry traffic every tick
// (application requests and responses, a migration push stream and a VMD
// write stream). One iteration is one tick.
//
//	go test -run '^$' -bench BenchmarkNetworkTick -cpu 1 -count 10 ./internal/simnet/
func BenchmarkNetworkTick(b *testing.B) {
	eng := sim.NewEngine(1)
	net := New(eng)
	const gbps = 125_000_000
	src, dst := net.NewNIC("src", gbps), net.NewNIC("dst", gbps)
	inter, client := net.NewNIC("inter", gbps), net.NewNIC("client", gbps)
	req := net.NewFlow("req", client, src, 0)
	resp := net.NewFlow("resp", src, client, 0)
	for _, name := range []string{"mig1:push", "mig1:demand", "mig1:ctrl"} {
		net.NewFlow(name, src, dst, 0).Close()
	}
	push := net.NewFlow("mig2:push", src, dst, 0)
	net.NewFlow("mig2:demand", src, dst, 0)
	net.NewFlow("mig2:ctrl", dst, src, 0)
	write := net.NewFlow("vmd:src", src, inter, 0)
	net.NewFlow("vmd:inter-src", inter, src, 0)
	net.NewFlow("vmd:dst", dst, inter, 0)
	busy := []*Flow{req, resp, push, write}
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range busy {
			f.SendMessage(4096, nop)
		}
		eng.Step()
	}
}
