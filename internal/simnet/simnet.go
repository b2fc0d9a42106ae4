// Package simnet models the cluster's Ethernet at flow granularity. Each
// host owns a full-duplex NIC with finite egress and ingress bandwidth;
// traffic moves over point-to-point flows (application request/response
// streams, the migration TCP connection, demand-paging RPCs, VMD page
// reads/writes). Every simulated tick the network arbitrates bandwidth
// among flows with pending bytes using max-min fairness across all egress
// and ingress ports — the same first-order behaviour TCP flows sharing a
// switch exhibit — and delivers bytes after the flow's one-way latency.
//
// This is where the paper's interference effects come from: a pre-copy
// stream saturating the source NIC steals bandwidth from the application's
// request/response traffic, and VMD reads at the destination compete with
// active-push traffic.
package simnet

import (
	"fmt"

	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Network owns all NICs and flows and performs per-tick arbitration. It
// registers itself in sim.PhaseNetwork.
type Network struct {
	eng  *sim.Engine
	nics []*NIC
	// flows lists the open flows in creation order. A flow closed since
	// the last tick stays listed until that tick's end; closed counts them.
	flows  []*Flow
	closed int

	// arbitration scratch, reused across ticks to keep the per-tick path
	// allocation-free
	active []*Flow
	ports  []*NIC

	// lossRNG drives message-loss decisions. It is created lazily by the
	// first SetLossRate call, so fault-free runs draw nothing from it and
	// stay byte-identical to builds without fault injection.
	lossRNG *sim.RNG

	// em records flow open/close events; nil (the default) records nothing.
	em *trace.Emitter
}

// SetTrace attaches a trace bus; flow lifecycle events are recorded under
// the given actor name. A testbed passes "net" prefixed with its own name
// prefix ("net" standalone, "cell007-net" in a fleet cell), so every
// network stays a distinct actor in a merged timeline. A nil trace
// detaches.
func (n *Network) SetTrace(tr *trace.Trace, actor string) {
	n.em = tr.Emitter(trace.ScopeCluster, actor)
}

// RegisterMetrics registers every NIC's cumulative traffic as gauges
// ("net/<nic>/tx.bytes", "net/<nic>/rx.bytes"). Call after the NICs exist.
func (n *Network) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, nc := range n.nics {
		nc := nc
		reg.Gauge("net/"+nc.name+"/tx.bytes", func() float64 { return float64(nc.egressBytes) })
		reg.Gauge("net/"+nc.name+"/rx.bytes", func() float64 { return float64(nc.ingressBytes) })
	}
}

// New returns a network bound to the engine.
func New(eng *sim.Engine) *Network {
	n := &Network{eng: eng}
	eng.AddTicker(sim.PhaseNetwork, n)
	return n
}

// NIC is one host's network interface.
type NIC struct {
	name       string
	egressBpt  int64 // bytes per tick
	ingressBpt int64
	net        *Network

	// down, when set, stops the NIC from transmitting or accepting
	// deliveries: egress flows are excluded from arbitration and in-transit
	// bytes destined here are held on the wire until the NIC comes back.
	down bool
	// lossRate, when positive, drops each framed message offered on a flow
	// touching this NIC with that probability (the message's bytes still
	// travel; its callback never fires — a corrupted frame).
	lossRate float64

	// statistics
	egressBytes  int64
	ingressBytes int64
	msgsLost     int64

	// arbitration scratch (valid only within one arbitrate call)
	arbMark  bool
	arbEgCap int64
	arbInCap int64
	arbEgCnt int
	arbInCnt int
}

// NewNIC creates a full-duplex NIC with the given bandwidth in bytes per
// second (e.g. 1 Gbps Ethernet = 125_000_000).
func (n *Network) NewNIC(name string, bytesPerSecond int64) *NIC {
	tps := n.eng.TicksPerSecond()
	bpt := int64(float64(bytesPerSecond) / tps)
	if bpt < 1 {
		bpt = 1
	}
	nic := &NIC{name: name, egressBpt: bpt, ingressBpt: bpt, net: n}
	n.nics = append(n.nics, nic)
	return nic
}

// Name returns the NIC's name.
func (nc *NIC) Name() string { return nc.name }

// BytesSent returns cumulative bytes transmitted by this NIC.
func (nc *NIC) BytesSent() int64 { return nc.egressBytes }

// BytesReceived returns cumulative bytes received by this NIC.
func (nc *NIC) BytesReceived() int64 { return nc.ingressBytes }

// NICByName returns the named NIC, or nil.
func (n *Network) NICByName(name string) *NIC {
	for _, nc := range n.nics {
		if nc.name == name {
			return nc
		}
	}
	return nil
}

// SetDown changes the NIC's link state. While down the NIC neither
// transmits nor accepts deliveries; flows keep their backlog and in-transit
// bytes wait on the wire, so traffic resumes (late, in order) when the link
// returns.
func (nc *NIC) SetDown(down bool) {
	if nc.down == down {
		return
	}
	nc.down = down
	if nc.net.em.Enabled() {
		kind := trace.LinkUp
		if down {
			kind = trace.LinkDown
		}
		nc.net.em.Emitf(nc.net.eng.NowSeconds(), kind, "nic %s", nc.name)
	}
}

// Down reports whether the NIC's link is down.
func (nc *NIC) Down() bool { return nc.down }

// SetLossRate opens (rate > 0) or closes (rate <= 0) a message-loss window
// on the NIC. The first call with a positive rate lazily seeds the
// network's loss stream from the given seed; fault-free runs never touch
// it. Rates above 1 clamp to 1.
func (nc *NIC) SetLossRate(rate float64, seed uint64) {
	if rate > 1 {
		rate = 1
	}
	if rate < 0 {
		rate = 0
	}
	nc.lossRate = rate
	if rate > 0 && nc.net.lossRNG == nil {
		nc.net.lossRNG = sim.NewRNG(seed)
	}
}

// MessagesLost returns how many framed messages were dropped by loss
// windows touching this NIC (counted at the sending side).
func (nc *NIC) MessagesLost() int64 { return nc.msgsLost }

type pendingMessage struct {
	endOffset int64 // cumulative delivered-byte position completing this message
	fn        func()
}

type inFlight struct {
	arrive sim.Time
	bytes  int64
}

// Flow is a reliable, ordered byte stream between two NICs (one direction).
// Callers either push raw bytes (Send) or framed messages whose callback
// fires when the last byte arrives (SendMessage). Message callbacks fire in
// FIFO order.
type Flow struct {
	name    string
	src     *NIC
	dst     *NIC
	latency sim.Duration
	net     *Network

	backlog   int64 // offered, not yet transmitted
	offered   int64 // cumulative offered bytes
	delivered int64 // cumulative delivered bytes
	closed    bool

	// transit and msgs are FIFO queues popped from the head; trHead/msgHead
	// index the live head so a pop is O(1) instead of shifting the slice
	// (migrations queue tens of thousands of page messages on one flow).
	transit []inFlight
	trHead  int
	msgs    []pendingMessage
	msgHead int

	// capBpt, when positive, limits the flow's transmission rate to that
	// many bytes per tick regardless of the fair share the arbiter would
	// grant (a token-bucket shaped stream, e.g. a per-migration bandwidth
	// cap from the control plane). Zero means uncapped.
	capBpt int64

	// arbitration scratch
	rate    int64
	settled bool
}

// NewFlow creates a flow from src to dst with the given one-way latency.
// Bytes transmitted in tick T are delivered at tick T+1+latencyTicks
// (store-and-forward plus propagation).
func (n *Network) NewFlow(name string, src, dst *NIC, latency sim.Duration) *Flow {
	if src == dst {
		panic("simnet: flow with identical endpoints")
	}
	f := &Flow{name: name, src: src, dst: dst, latency: latency, net: n}
	n.flows = append(n.flows, f)
	if n.em.Enabled() {
		n.em.Emitf(n.eng.NowSeconds(), trace.FlowOpen, "%s (%s -> %s)", name, src.name, dst.name)
	}
	return f
}

// Name returns the flow's name.
func (f *Flow) Name() string { return f.name }

// SetRateCapBytesPerSecond shapes the flow to at most bytesPerSecond,
// regardless of the fair share arbitration would grant. The cap acts as a
// demand ceiling in max-min arbitration, so capacity a capped flow leaves
// unused is redistributed to competing flows on the same ports. Zero (or
// negative) removes the cap; a positive cap is clamped to at least one
// byte per tick, mirroring NIC bandwidth quantisation.
func (f *Flow) SetRateCapBytesPerSecond(bytesPerSecond int64) {
	if bytesPerSecond <= 0 {
		f.capBpt = 0
		return
	}
	bpt := int64(float64(bytesPerSecond) / f.net.eng.TicksPerSecond())
	if bpt < 1 {
		bpt = 1
	}
	f.capBpt = bpt
}

// demand returns the bytes the flow wants to transmit this tick: its
// backlog, ceilinged by the rate cap when one is set.
func (f *Flow) demand() int64 {
	if f.capBpt > 0 && f.backlog > f.capBpt {
		return f.capBpt
	}
	return f.backlog
}

// Send offers raw stream bytes with no completion notification.
func (f *Flow) Send(bytes int64) {
	if bytes < 0 {
		panic("simnet: negative send")
	}
	if f.closed {
		return
	}
	f.backlog += bytes
	f.offered += bytes
}

// SendMessage offers a framed message; fn (if non-nil) runs when its final
// byte is delivered at the destination. Zero-byte messages are delivered
// after the flow latency behind any queued bytes. During a loss window on
// either endpoint the message may be dropped: its bytes still travel (the
// frame is sent but arrives corrupted), but fn never fires — callers with
// at-least-once requirements pair SendMessage with a timeout.
func (f *Flow) SendMessage(bytes int64, fn func()) {
	if bytes < 0 {
		panic("simnet: negative message size")
	}
	if f.closed {
		return
	}
	f.backlog += bytes
	f.offered += bytes
	if fn != nil && f.lost(bytes) {
		fn = nil
	}
	if fn != nil {
		f.msgs = append(f.msgs, pendingMessage{endOffset: f.offered, fn: fn})
	}
}

// lost decides whether the message just offered falls inside a loss window
// (one draw against the larger endpoint rate).
func (f *Flow) lost(bytes int64) bool {
	rate := f.src.lossRate
	if f.dst.lossRate > rate {
		rate = f.dst.lossRate
	}
	if rate <= 0 || f.net.lossRNG == nil || f.net.lossRNG.Float64() >= rate {
		return false
	}
	if f.src.lossRate >= f.dst.lossRate {
		f.src.msgsLost++
	} else {
		f.dst.msgsLost++
	}
	if f.net.em.Enabled() {
		f.net.em.Emitf(f.net.eng.NowSeconds(), trace.MessageLost, "%s: %d-byte message dropped", f.name, bytes)
	}
	return true
}

// Close drops any undelivered traffic and ignores future sends. Pending
// message callbacks never fire. The migration engines close their flows
// when a migration completes or aborts.
func (f *Flow) Close() {
	if !f.closed && f.net != nil {
		f.net.closed++
		if f.net.em.Enabled() {
			f.net.em.Emitf(f.net.eng.NowSeconds(), trace.FlowClose, "%s (%d bytes delivered)", f.name, f.delivered)
		}
	}
	f.closed = true
	f.backlog = 0
	f.transit, f.trHead = nil, 0
	f.msgs, f.msgHead = nil, 0
}

// Closed reports whether the flow has been closed.
func (f *Flow) Closed() bool { return f.closed }

// Backlog returns bytes offered but not yet transmitted.
func (f *Flow) Backlog() int64 { return f.backlog }

// Delivered returns cumulative bytes delivered to the destination.
func (f *Flow) Delivered() int64 { return f.delivered }

// Offered returns cumulative bytes offered to the flow.
func (f *Flow) Offered() int64 { return f.offered }

// InFlight returns bytes transmitted but not yet delivered.
func (f *Flow) InFlight() int64 {
	var t int64
	for _, x := range f.transit[f.trHead:] {
		t += x.bytes
	}
	return t
}

// Tick delivers due bytes, arbitrates this tick's bandwidth, and then
// drops the flows closed since the last tick from the list it scans.
func (n *Network) Tick(now sim.Time) {
	n.deliver(now)
	n.arbitrate()
	if n.closed > 0 {
		n.dropClosed()
	}
}

// dropClosed removes closed flows from n.flows by a stable compaction.
// deliver, arbitrate and NextWake skip a closed flow anyway; dropping it
// saves their per-tick visit, and keeping the order keeps every result.
func (n *Network) dropClosed() {
	open := n.flows[:0]
	for _, f := range n.flows {
		if !f.closed {
			open = append(open, f)
		}
	}
	clear(n.flows[len(open):])
	n.flows, n.closed = open, 0
}

// NextWake reports when the network next has work: immediately while any
// flow has a backlog to arbitrate (or a deliverable message), otherwise at
// the earliest in-transit arrival. With no backlog and nothing in transit a
// network tick is an exact no-op, so the engine may skip ahead.
func (n *Network) NextWake(now sim.Time) (sim.Time, bool) {
	wake := sim.Never
	for _, f := range n.flows {
		if f.closed {
			continue
		}
		if f.src.down || f.dst.down {
			// The flow is frozen: no transmission, no delivery. The link-up
			// fault event already sits in the engine's queue and bounds any
			// idle jump, so a held backlog or transit queue must not pin the
			// clock to every tick.
			continue
		}
		if f.backlog > 0 {
			return now + 1, true
		}
		if f.msgHead < len(f.msgs) && f.msgs[f.msgHead].endOffset <= f.delivered {
			return now + 1, true
		}
		// transit is appended in arrival order, so the head is earliest.
		if f.trHead < len(f.transit) && f.transit[f.trHead].arrive < wake {
			wake = f.transit[f.trHead].arrive
		}
	}
	return wake, true
}

func (n *Network) deliver(now sim.Time) {
	for _, f := range n.flows {
		if f.closed || f.dst.down {
			continue
		}
		for f.trHead < len(f.transit) && f.transit[f.trHead].arrive <= now {
			f.delivered += f.transit[f.trHead].bytes
			f.dst.ingressBytes += f.transit[f.trHead].bytes
			f.trHead++
		}
		if f.trHead > 0 {
			// Compact so appends reuse capacity instead of growing forever
			// (amortized O(1): only when the dead head outweighs the tail).
			if f.trHead == len(f.transit) {
				f.transit, f.trHead = f.transit[:0], 0
			} else if f.trHead >= len(f.transit)-f.trHead {
				f.transit = f.transit[:copy(f.transit, f.transit[f.trHead:])]
				f.trHead = 0
			}
		}
		for f.msgHead < len(f.msgs) && f.msgs[f.msgHead].endOffset <= f.delivered {
			fn := f.msgs[f.msgHead].fn
			f.msgs[f.msgHead].fn = nil // release for GC; the slice is reused
			f.msgHead++
			fn() // may append to f.msgs or close the flow
		}
		if f.msgHead > 0 {
			if f.msgHead == len(f.msgs) {
				f.msgs, f.msgHead = f.msgs[:0], 0
			} else if f.msgHead >= len(f.msgs)-f.msgHead {
				f.msgs = f.msgs[:copy(f.msgs, f.msgs[f.msgHead:])]
				f.msgHead = 0
			}
		}
	}
}

// arbitrate assigns this tick's transmission rate to every flow with a
// backlog using progressive filling (max-min fairness): repeatedly find the
// most constrained port, give its flows an equal share, settle them, and
// recompute. Flows whose demand (backlog) is below their share settle at
// their demand, returning capacity to others.
func (n *Network) arbitrate() {
	active := n.activeFlows()
	if len(active) == 0 {
		return
	}
	// Per-port capacity and unsettled-flow counts live in scratch fields on
	// the NICs themselves (no per-tick maps); ports lists the NICs touched.
	ports := n.ports[:0]
	for _, f := range active {
		f.rate = 0
		f.settled = false
		for _, nic := range [2]*NIC{f.src, f.dst} {
			if !nic.arbMark {
				nic.arbMark = true
				nic.arbEgCap = nic.egressBpt
				nic.arbInCap = nic.ingressBpt
				nic.arbEgCnt = 0
				nic.arbInCnt = 0
				ports = append(ports, nic)
			}
		}
		f.src.arbEgCnt++
		f.dst.arbInCnt++
	}
	n.ports = ports
	remaining := len(active)
	for remaining > 0 {
		// Find the bottleneck share across all ports with unsettled flows.
		share := int64(-1)
		for _, nic := range ports {
			if nic.arbEgCnt > 0 {
				s := nic.arbEgCap / int64(nic.arbEgCnt)
				if share < 0 || s < share {
					share = s
				}
			}
			if nic.arbInCnt > 0 {
				s := nic.arbInCap / int64(nic.arbInCnt)
				if share < 0 || s < share {
					share = s
				}
			}
		}
		if share < 0 {
			break
		}
		// Settle flows whose demand is at or below the share; if none,
		// settle every flow on the bottleneck port at exactly the share.
		settledAny := false
		for _, f := range active {
			if f.settled {
				continue
			}
			demand := f.demand()
			if demand <= share {
				f.rate = demand
				f.settled = true
				settledAny = true
				f.src.arbEgCap -= demand
				f.dst.arbInCap -= demand
				f.src.arbEgCnt--
				f.dst.arbInCnt--
				remaining--
			}
		}
		if settledAny {
			continue
		}
		// No flow is demand-limited: the bottleneck port's flows each get
		// the share. Identify the port achieving the minimum.
		for _, f := range active {
			if f.settled {
				continue
			}
			bottleneck := f.src.arbEgCap/int64(f.src.arbEgCnt) == share ||
				f.dst.arbInCap/int64(f.dst.arbInCnt) == share
			if !bottleneck {
				continue
			}
			f.rate = share
			f.settled = true
			f.src.arbEgCap -= share
			f.dst.arbInCap -= share
			f.src.arbEgCnt--
			f.dst.arbInCnt--
			remaining--
		}
	}
	for _, nic := range ports {
		nic.arbMark = false
	}
	now := n.eng.Now()
	for _, f := range active {
		if f.rate <= 0 {
			continue
		}
		bytes := f.rate
		if bytes > f.backlog {
			bytes = f.backlog
		}
		f.backlog -= bytes
		f.src.egressBytes += bytes
		f.transit = append(f.transit, inFlight{arrive: now + 1 + sim.Time(f.latency), bytes: bytes})
	}
}

func (n *Network) activeFlows() []*Flow {
	active := n.active[:0]
	for _, f := range n.flows {
		if !f.closed && f.backlog > 0 && !f.src.down && !f.dst.down {
			active = append(active, f)
		}
	}
	n.active = active
	return active
}

// String describes the network for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{%d nics, %d open flows}", len(n.nics), len(n.flows)-n.closed)
}
