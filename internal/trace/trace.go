// Package trace is the simulator's cluster-wide event bus: a bounded ring
// buffer that migrations, cgroups, the VMD, the network and the WSS
// trackers emit typed, scoped events into, so operators (and tests) can
// reconstruct what happened and when without digging through counters.
// Recording is allocation-light; a nil *Trace (and the nil *Emitter it
// hands out) is a no-op, so instrumented code pays nothing when
// observability is off.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies an event.
type Kind int

// Event kinds. The first block covers the migration lifecycle in rough
// order; the second block covers the rest of the cluster (VMD, cgroup,
// WSS, network). Values are append-only so recorded traces stay readable
// across versions.
const (
	// MigrationStart marks Start() of a migration.
	MigrationStart Kind = iota
	// RoundStart marks the beginning of a pre-copy round (or Agile's live
	// round).
	RoundStart
	// RoundEnd marks a completed round scan; detail carries dirty counts.
	RoundEnd
	// Throttle marks an auto-converge vCPU throttle.
	Throttle
	// Suspend marks the VM's suspension at the source.
	Suspend
	// CPUStateSent marks the CPU-state/dirty-bitmap message entering the
	// stream.
	CPUStateSent
	// Switchover marks execution resuming at the destination.
	Switchover
	// SourceDrained marks the last pushed page leaving the source.
	SourceDrained
	// Complete marks the migration's end (source freed).
	Complete

	// ScatterStart marks scatter-gather's scatter phase: the source begins
	// spraying pages across intermediate hosts.
	ScatterStart
	// GatherStart marks the gather prefetch starting at the destination.
	GatherStart
	// NamespaceAttach marks a VMD namespace attaching to a host's client
	// (at deploy, and again at switchover when the swap device follows the
	// VM to the destination).
	NamespaceAttach
	// NamespaceDetach marks a namespace detaching from a host's client.
	NamespaceDetach
	// DemandFault marks a destination page fault routed back to the
	// migration source (post-copy style demand paging).
	DemandFault
	// VMDRead marks a demand read served by the VMD (a page faulted in
	// from the distributed swap device rather than the source).
	VMDRead
	// VMDNack marks a VMD server rejecting a page store (out of space);
	// the client retries elsewhere.
	VMDNack
	// CgroupResize marks a cgroup reservation change (the WSS tracker's
	// grow/shrink knob, and the switchover clamp release).
	CgroupResize
	// CgroupSwapFull marks an eviction finding the swap device full.
	CgroupSwapFull
	// WSSStable marks a WSS tracker converging on a working-set estimate.
	WSSStable
	// WSSUnstable marks a tracker abandoning a converged estimate.
	WSSUnstable
	// FlowOpen marks a network flow opening.
	FlowOpen
	// FlowClose marks a network flow closing.
	FlowClose

	// ServerCrash marks a VMD server going down (its stored pages are
	// lost; replicated pages remain readable elsewhere).
	ServerCrash
	// ServerRestart marks a crashed VMD server rejoining, empty.
	ServerRestart
	// LinkDown marks a NIC losing its link.
	LinkDown
	// LinkUp marks a NIC's link returning.
	LinkUp
	// MessageLost marks a framed message dropped inside a loss window.
	MessageLost
	// VMDSpill marks a page spilled to the writing host's local swap disk
	// because no VMD server could take it (pool exhausted).
	VMDSpill
	// VMDFailover marks a read served from a replica because the primary
	// copy's server is down.
	VMDFailover
	// VMDRepair marks background re-replication restoring a page's
	// replication factor after a crash.
	VMDRepair
	// VMDLost marks a read of a page whose every copy died with crashed
	// servers (served as zero-fill, counted as data loss).
	VMDLost
	// DemandRetry marks a destination re-sending a demand-page request
	// after a timeout (source or network outage).
	DemandRetry
	// MigrationAbort marks a pre-switchover migration rolling back to the
	// source.
	MigrationAbort

	// VMDPrefetch marks a client-side readahead window being issued against
	// a namespace's demand-fault stream.
	VMDPrefetch
	// VMDPrefetchHit marks a demand read served from the client's staging
	// cache (no network traffic).
	VMDPrefetchHit
	// VMDRebalance marks consistent-hash placement moving a page to its
	// ring-preferred server after a membership change.
	VMDRebalance
	// VMDTierMove marks a page moving between a server's memory and disk
	// tiers (demotion by the cold scan, or promotion on access).
	VMDTierMove
	// CtlPhase marks a control-plane Migration object changing phase
	// (Pending -> Scheduling -> Running -> a terminal phase).
	CtlPhase
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case MigrationStart:
		return "start"
	case RoundStart:
		return "round-start"
	case RoundEnd:
		return "round-end"
	case Throttle:
		return "throttle"
	case Suspend:
		return "suspend"
	case CPUStateSent:
		return "cpu-state-sent"
	case Switchover:
		return "switchover"
	case SourceDrained:
		return "source-drained"
	case Complete:
		return "complete"
	case ScatterStart:
		return "scatter-start"
	case GatherStart:
		return "gather-start"
	case NamespaceAttach:
		return "ns-attach"
	case NamespaceDetach:
		return "ns-detach"
	case DemandFault:
		return "demand-fault"
	case VMDRead:
		return "vmd-read"
	case VMDNack:
		return "vmd-nack"
	case CgroupResize:
		return "cgroup-resize"
	case CgroupSwapFull:
		return "swap-full"
	case WSSStable:
		return "wss-stable"
	case WSSUnstable:
		return "wss-unstable"
	case FlowOpen:
		return "flow-open"
	case FlowClose:
		return "flow-close"
	case ServerCrash:
		return "server-crash"
	case ServerRestart:
		return "server-restart"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case MessageLost:
		return "msg-lost"
	case VMDSpill:
		return "vmd-spill"
	case VMDFailover:
		return "vmd-failover"
	case VMDRepair:
		return "vmd-repair"
	case VMDLost:
		return "vmd-lost"
	case DemandRetry:
		return "demand-retry"
	case MigrationAbort:
		return "abort"
	case VMDPrefetch:
		return "vmd-prefetch"
	case VMDPrefetchHit:
		return "vmd-prefetch-hit"
	case VMDRebalance:
		return "vmd-rebalance"
	case VMDTierMove:
		return "vmd-tier-move"
	case CtlPhase:
		return "ctl-phase"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Scope says what kind of actor emitted an event, so exporters can group
// timelines (one Perfetto process per actor) and readers can filter.
type Scope int8

const (
	// ScopeCluster is for cluster-level actors: the network fabric,
	// controllers, anything not owned by one VM/host/device.
	ScopeCluster Scope = iota
	// ScopeHost is for per-host actors (a host's cgroup controller, NIC).
	ScopeHost
	// ScopeVM is for per-VM actors (a migration, a VM's cgroup).
	ScopeVM
	// ScopeDevice is for devices (VMD namespaces, block devices).
	ScopeDevice
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeCluster:
		return "cluster"
	case ScopeHost:
		return "host"
	case ScopeVM:
		return "vm"
	case ScopeDevice:
		return "device"
	}
	return fmt.Sprintf("Scope(%d)", int(s))
}

// Event is one recorded occurrence.
type Event struct {
	T      float64 // simulated seconds
	Kind   Kind
	Scope  Scope
	Actor  string // who emitted it ("vm1", "dest/vm1", "vmd:swap-vm1", ...)
	Detail string
}

// Trace is a bounded event recorder: a circular buffer that overwrites the
// oldest event once full, counting every overwrite as a drop. The zero
// value is not usable; call New. A Trace is not safe for concurrent use —
// give each concurrently running testbed its own.
type Trace struct {
	events []Event
	head   int // index of the oldest event once the ring has wrapped
	max    int
	drops  int64

	// Span side (see span.go): append-only, bounded by the same max,
	// dropping newest rather than oldest.
	spans     []Span
	spanDrops int64
	openSpans int
}

// DefaultCapacity bounds a trace when 0 is passed to New. It fits a single
// migration's phase events comfortably.
const DefaultCapacity = 1024

// DefaultBusCapacity is a roomier default for a cluster-wide bus, where
// demand faults and VMD reads dominate event volume.
const DefaultBusCapacity = 1 << 16

// New returns a trace holding at most capacity events (0 selects the
// default). The oldest events are dropped once full.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{max: capacity}
}

// record appends one event, overwriting the oldest in O(1) once full.
func (t *Trace) record(ev Event) {
	if len(t.events) < t.max {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head++
	if t.head == t.max {
		t.head = 0
	}
	t.drops++
}

// Len returns the number of events currently held.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// at returns the i-th oldest event (0 <= i < Len).
func (t *Trace) at(i int) *Event {
	i += t.head
	if i >= len(t.events) {
		i -= len(t.events)
	}
	return &t.events[i]
}

// Events returns the recorded events, oldest first. Before the ring wraps
// this aliases internal storage; afterwards it is a fresh slice.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	if t.head == 0 {
		return t.events
	}
	out := make([]Event, len(t.events))
	n := copy(out, t.events[t.head:])
	copy(out[n:], t.events[:t.head])
	return out
}

// Drops returns how many events were discarded to stay within capacity.
func (t *Trace) Drops() int64 {
	if t == nil {
		return 0
	}
	return t.drops
}

// Cap returns the ring capacity.
func (t *Trace) Cap() int {
	if t == nil {
		return 0
	}
	return t.max
}

// Find returns the first (oldest) event of the given kind, or nil.
func (t *Trace) Find(kind Kind) *Event {
	if t == nil {
		return nil
	}
	for i := 0; i < len(t.events); i++ {
		if e := t.at(i); e.Kind == kind {
			return e
		}
	}
	return nil
}

// Count returns how many events of the kind were recorded.
func (t *Trace) Count(kind Kind) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.events {
		if t.events[i].Kind == kind {
			n++
		}
	}
	return n
}

// String renders the trace as one line per event.
func (t *Trace) String() string {
	var b strings.Builder
	for i := 0; i < t.Len(); i++ {
		e := t.at(i)
		if e.Actor != "" {
			fmt.Fprintf(&b, "%9.3fs  %-14s %-16s %s\n", e.T, e.Kind, e.Actor, e.Detail)
		} else {
			fmt.Fprintf(&b, "%9.3fs  %-14s %s\n", e.T, e.Kind, e.Detail)
		}
	}
	if d := t.Drops(); d > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", d)
	}
	return b.String()
}

// Emitter is a scoped handle onto a Trace, carrying the actor identity so
// emitting code doesn't rebuild it per event. A nil Emitter (what a nil
// Trace hands out) is a no-op; hot paths should additionally guard
// formatted emissions with Enabled() so the fmt arguments are never boxed
// when tracing is off.
type Emitter struct {
	tr    *Trace
	scope Scope
	actor string
}

// Emitter returns an emitter recording into t under the given scope and
// actor name. A nil Trace returns a nil (no-op) Emitter.
func (t *Trace) Emitter(scope Scope, actor string) *Emitter {
	if t == nil {
		return nil
	}
	return &Emitter{tr: t, scope: scope, actor: actor}
}

// Enabled reports whether events emitted here are recorded anywhere.
func (e *Emitter) Enabled() bool { return e != nil }

// Emit records a pre-formatted event. Safe (and free) on a nil Emitter:
// with a constant detail string the disabled path performs no allocation.
func (e *Emitter) Emit(now float64, kind Kind, detail string) {
	if e == nil {
		return
	}
	e.tr.record(Event{T: now, Kind: kind, Scope: e.scope, Actor: e.actor, Detail: detail})
}

// Emitf records an event with a formatted detail. The variadic arguments
// are boxed at the call site even when e is nil — guard hot paths with
// Enabled().
func (e *Emitter) Emitf(now float64, kind Kind, format string, args ...interface{}) {
	if e == nil {
		return
	}
	e.tr.record(Event{T: now, Kind: kind, Scope: e.scope, Actor: e.actor, Detail: fmt.Sprintf(format, args...)})
}
