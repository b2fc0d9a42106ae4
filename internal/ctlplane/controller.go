package ctlplane

import (
	"fmt"

	"agilemig/internal/core"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Config shapes a Controller.
type Config struct {
	// MaxConcurrent bounds simultaneously Running migrations; zero or
	// negative means unlimited.
	MaxConcurrent int
	// Policy chooses destinations for unpinned migrations. Required unless
	// every Spec pins DestHost.
	Policy PlacementPolicy
	// Trace, when non-nil, receives a CtlPhase event for every phase
	// transition.
	Trace *trace.Trace
}

// Controller reconciles submitted Migration objects against the cluster.
// It is purely event-driven on the simulation engine: a reconcile pass is
// scheduled one tick after every submission and every completion, so the
// engine's idle fast-forward still skips dead time between migrations and
// runs are byte-identical at any shard count.
type Controller struct {
	eng *sim.Engine
	cl  Cluster
	cfg Config

	migs    []*Migration // submission order — the reconcile order
	byName  map[string]*Migration
	running int
	kicked  bool

	em *trace.Emitter // cluster-scope phase transitions; nil records nothing
}

// NewController builds a controller over the cluster.
func NewController(eng *sim.Engine, cl Cluster, cfg Config) *Controller {
	return &Controller{
		eng:    eng,
		cl:     cl,
		cfg:    cfg,
		byName: make(map[string]*Migration),
		em:     cfg.Trace.Emitter(trace.ScopeCluster, ""),
	}
}

// Submit creates a Migration object named "mig-<vm>" from the spec and
// queues it for reconciliation.
func (c *Controller) Submit(spec Spec) *Migration {
	return c.SubmitNamed("mig-"+spec.VM, spec)
}

// SubmitNamed is Submit with an explicit object name. Resubmitting a name
// whose object is still live panics (a spec is desired state, not a
// command stream); a name whose object reached a terminal phase may be
// reused — the new object replaces it in the index, and the old one stays
// in Migrations() history. This is what lets Submit's auto-generated
// "mig-<vm>" name move a VM again after an earlier migration finished.
func (c *Controller) SubmitNamed(name string, spec Spec) *Migration {
	if prev, ok := c.byName[name]; ok && !prev.Status.Phase.Terminal() {
		panic(fmt.Sprintf("ctlplane: migration %q is still live", name))
	}
	m := &Migration{
		Name: name,
		Spec: spec,
		Status: Status{
			Phase:              PhasePending,
			SubmittedAtSeconds: c.eng.NowSeconds(),
			StartedAtSeconds:   -1,
			FinishedAtSeconds:  -1,
		},
	}
	c.migs = append(c.migs, m)
	c.byName[name] = m
	c.trace("%s: submitted vm=%s -> %s", name, spec.VM, PhasePending)
	c.kick()
	return m
}

// Get returns the named Migration object (nil if unknown).
func (c *Controller) Get(name string) *Migration { return c.byName[name] }

// Migrations returns every object in submission order.
func (c *Controller) Migrations() []*Migration { return c.migs }

// Done reports whether every submitted migration reached a terminal phase.
func (c *Controller) Done() bool {
	for _, m := range c.migs {
		if !m.Status.Phase.Terminal() {
			return false
		}
	}
	return true
}

// Counts tallies objects per phase.
type Counts struct {
	Pending, Scheduling, Running      int
	Succeeded, Failed, Aborted, Total int
}

// Counts tallies every submitted object by phase.
func (c *Controller) Counts() Counts {
	var n Counts
	for _, m := range c.migs {
		switch m.Status.Phase {
		case PhasePending:
			n.Pending++
		case PhaseScheduling:
			n.Scheduling++
		case PhaseRunning:
			n.Running++
		case PhaseSucceeded:
			n.Succeeded++
		case PhaseFailed:
			n.Failed++
		case PhaseAborted:
			n.Aborted++
		}
		n.Total++
	}
	return n
}

// Abort requests rollback of the named migration. Pending objects go
// straight to Aborted; Running ones are aborted in the data plane (the
// phase transition lands when the rollback completes). It reports false if
// the object is unknown, already terminal, or past switchover.
func (c *Controller) Abort(name, reason string) bool {
	m := c.byName[name]
	if m == nil || m.Status.Phase.Terminal() {
		return false
	}
	if m.Status.Phase == PhasePending {
		m.Status.Reason = reason
		c.transition(m, PhaseAborted)
		m.Status.FinishedAtSeconds = c.eng.NowSeconds()
		return true
	}
	if m.handle == nil || m.handle.Switched() {
		return false
	}
	m.Status.Reason = reason
	return m.handle.Abort()
}

// kick schedules a reconcile pass one tick from now (coalescing repeated
// kicks within a tick into one pass).
func (c *Controller) kick() {
	if c.kicked {
		return
	}
	c.kicked = true
	c.eng.Schedule(c.eng.Now()+1, c.reconcile)
}

// reconcile is one control-loop pass: admit as many Pending migrations as
// concurrency slots allow, place them as a batch, and launch.
func (c *Controller) reconcile() {
	c.kicked = false

	slots := len(c.migs) // unlimited
	if c.cfg.MaxConcurrent > 0 {
		slots = c.cfg.MaxConcurrent - c.running
	}
	if slots <= 0 {
		return
	}

	// A VM has exactly one live data-plane migration at a time (core.Start
	// panics on a second); a later spec for a VM that is already Scheduling
	// or Running waits Pending until the earlier one reaches a terminal
	// phase, rather than being launched into a rejection.
	active := make(map[string]bool)
	for _, m := range c.migs {
		if m.Status.Phase == PhaseScheduling || m.Status.Phase == PhaseRunning {
			active[m.Spec.VM] = true
		}
	}

	// Gather the admission batch in submission order.
	var batch []*Migration
	for _, m := range c.migs {
		if len(batch) >= slots {
			break
		}
		if m.Status.Phase != PhasePending {
			continue
		}
		if active[m.Spec.VM] {
			if m.Status.Reason == "" {
				m.Status.Reason = "waiting: VM already migrating"
			}
			continue // retried after the live migration completes
		}
		active[m.Spec.VM] = true
		batch = append(batch, m)
	}
	if len(batch) == 0 {
		return
	}

	dests := c.place(batch)
	for i, m := range batch {
		if dests[i] == "" {
			if m.Status.Reason == "" {
				m.Status.Reason = "no feasible destination"
			}
			continue // stays Pending; retried after the next completion
		}
		c.launch(m, dests[i])
	}
}

// place chooses destinations for the batch: pinned specs are honored
// verbatim, the rest go through the placement policy against a capacity
// snapshot that already accounts for this batch's pinned reservations.
func (c *Controller) place(batch []*Migration) []string {
	hosts := c.cl.HostCapacities()
	dests := make([]string, len(batch))

	// Honor pins first so the policy sees their reservations.
	for i, m := range batch {
		if m.Spec.DestHost == "" {
			continue
		}
		dests[i] = m.Spec.DestHost
		for j := range hosts {
			if hosts[j].Name == m.Spec.DestHost {
				hosts[j].FreeReservationBytes -= m.Spec.DestReservationBytes
			}
		}
	}

	var reqs []Request
	var open []int // batch indices needing placement
	for i, m := range batch {
		if dests[i] != "" {
			continue
		}
		src := c.cl.VMHost(m.Spec.VM)
		req := Request{
			VM:               m.Spec.VM,
			ReservationBytes: m.Spec.DestReservationBytes,
			Source:           src,
		}
		if len(m.Spec.AvoidHosts) > 0 {
			req.Allowed = allowedHosts(hosts, src, m.Spec.AvoidHosts)
		}
		reqs = append(reqs, req)
		open = append(open, i)
	}
	if len(reqs) == 0 {
		return dests
	}
	if c.cfg.Policy == nil {
		for _, i := range open {
			batch[i].Status.Reason = "no placement policy configured"
		}
		return dests
	}
	placed := c.cfg.Policy.Place(hosts, reqs)
	for k, i := range open {
		dests[i] = placed[k]
	}
	return dests
}

// allowedHosts lists every host name except the source and the avoided
// set.
func allowedHosts(hosts []HostCapacity, src string, avoid []string) []string {
	out := []string{}
	for _, h := range hosts {
		if h.Name == src {
			continue
		}
		skip := false
		for _, a := range avoid {
			if h.Name == a {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, h.Name)
		}
	}
	return out
}

// launch moves one object Scheduling -> Running (or Failed if the cluster
// rejects it) and arms its deadline.
func (c *Controller) launch(m *Migration, dest string) {
	m.Status.Dest = dest
	m.Status.Reason = ""
	c.transition(m, PhaseScheduling)

	handle, err := c.cl.Launch(m.Spec.VM, dest, m.Spec.Technique,
		m.Spec.DestReservationBytes, m.Spec.BandwidthCapBytesPerSec,
		func(res *core.Result) { c.onDone(m, res) })
	if err != nil {
		m.Status.Reason = err.Error()
		c.transition(m, PhaseFailed)
		m.Status.FinishedAtSeconds = c.eng.NowSeconds()
		// The slot this launch consumed is free again; without a re-kick a
		// synchronous failure with nothing Running would strand the
		// remaining Pending objects (reconciles otherwise only follow
		// submissions and completions).
		c.kick()
		return
	}
	m.handle = handle
	m.Status.StartedAtSeconds = c.eng.NowSeconds()
	c.running++
	c.transition(m, PhaseRunning)

	if m.Spec.TimeoutSeconds > 0 {
		deadline := m.Spec.TimeoutSeconds
		c.eng.AfterSeconds(deadline, func() {
			if m.Status.Phase.Terminal() || m.handle.Switched() {
				return
			}
			m.Status.Reason = fmt.Sprintf("deadline exceeded: no switchover within %.0fs", deadline)
			m.handle.Abort()
		})
	}
}

// onDone is the data plane's completion callback.
func (c *Controller) onDone(m *Migration, res *core.Result) {
	m.Status.Result = res
	m.Status.FinishedAtSeconds = c.eng.NowSeconds()
	c.running--
	if res != nil && res.Aborted {
		if m.Status.Reason == "" {
			m.Status.Reason = "rolled back to source"
		}
		c.transition(m, PhaseAborted)
	} else {
		c.transition(m, PhaseSucceeded)
	}
	c.kick() // a slot freed — admit the next Pending object
}

// transition moves the object to a new phase and traces it.
func (c *Controller) transition(m *Migration, to Phase) {
	from := m.Status.Phase
	m.Status.Phase = to
	if to == from {
		return
	}
	if m.Status.Reason != "" && to.Terminal() {
		c.trace("%s: %s -> %s (dest=%s, %s)", m.Name, from, to, m.Status.Dest, m.Status.Reason)
		return
	}
	c.trace("%s: %s -> %s (dest=%s)", m.Name, from, to, m.Status.Dest)
}

func (c *Controller) trace(format string, args ...interface{}) {
	if !c.em.Enabled() {
		return
	}
	c.em.Emitf(c.eng.NowSeconds(), trace.CtlPhase, format, args...)
}
