// Package guest models a virtual machine as the migration engines and
// workloads see it: a page table over its physical memory, an attachment to
// a cgroup on its current host, and a pluggable fault handler. Workloads
// drive the VM through Access; anything that is not an immediate RAM hit is
// routed to the fault handler — the hypervisor's swap-in path in normal
// operation, or the UMEMD-style migration handler while the VM runs at a
// migration destination with memory still arriving.
package guest

import (
	"fmt"

	"agilemig/internal/cgroup"
	"agilemig/internal/mem"
	"agilemig/internal/pool"
	"agilemig/internal/sim"
)

// FaultHandler resolves an access to a page that is not an immediate RAM
// hit (untouched, swapped, faulting, or — under a migration handler — not
// yet received). If the handler can satisfy the access without waiting
// (zero-page read, allocation on first write) it resolves the page and
// returns true without calling done; otherwise it returns false and invokes
// done exactly once when the access can proceed.
type FaultHandler interface {
	HandleFault(vm *VM, p mem.PageID, write bool, done func()) (immediate bool)
}

// VM is one virtual machine. Its identity is stable across migration; its
// table, group and fault handler change as it moves between hosts.
type VM struct {
	eng   *sim.Engine
	name  string
	table *mem.Table

	group   *cgroup.Group
	handler FaultHandler

	running bool
	// cpuQuota scales the guest's execution speed in (0, 1]: 1 is full
	// speed; lower values model vCPU throttling (QEMU auto-converge /
	// VMware SDPS), which migration engines use to force a write-heavy
	// pre-copy to converge.
	cpuQuota float64
	// pended holds accesses that arrived while the vCPUs were suspended;
	// they replay on Resume — at a migration destination this routes them
	// through the migration fault handler, like in-flight guest work
	// completing after a post-copy switchover.
	pended []pendedAccess
	// waits recycles the records of accesses routed to the fault handler.
	waits pool.Freelist[faultWait]

	faults      int64
	zeroReads   int64
	suspendedAt sim.Time
	downtime    sim.Duration

	// migrating is set while a live migration owns the VM; a second
	// concurrent migration of the same VM would corrupt its page state, so
	// core.Start refuses while the flag is up.
	migrating bool
}

type pendedAccess struct {
	p     mem.PageID
	write bool
	done  func()
}

// faultWait carries one access the fault handler must resolve. fireF is
// the completion handed to the handler, bound once per record.
type faultWait struct {
	vm    *VM
	p     mem.PageID
	write bool
	done  func()
	fireF func()
}

// fire completes the access once the handler has resolved the page. The
// record recycles before done runs, so done may start another access.
func (w *faultWait) fire() {
	vm, p, write, done := w.vm, w.p, w.write, w.done
	w.done = nil
	vm.waits.Put(w)
	vm.hit(p, write)
	if done != nil {
		done()
	}
}

// New creates a VM with the given memory size. It starts suspended with the
// default (hypervisor swap) fault handler; attach a group and call Resume.
func New(eng *sim.Engine, name string, memBytes int64) *VM {
	pages := mem.BytesToPages(memBytes)
	if pages <= 0 {
		panic("guest: VM with no memory")
	}
	vm := &VM{eng: eng, name: name, table: mem.NewTable(pages), cpuQuota: 1}
	vm.handler = defaultHandler{}
	return vm
}

// Migrating reports whether a live migration currently owns the VM.
func (vm *VM) Migrating() bool { return vm.migrating }

// SetMigrating marks (or clears) migration ownership. Only the migration
// engine should call this: it sets the flag in core.Start and clears it at
// completion or abort.
func (vm *VM) SetMigrating(on bool) { vm.migrating = on }

// CPUQuota returns the current vCPU speed factor in (0, 1].
func (vm *VM) CPUQuota() float64 { return vm.cpuQuota }

// SetCPUQuota throttles (or restores) the vCPUs. Values are clamped to
// (0.01, 1]. Workload generators scale their issue rate by the quota.
func (vm *VM) SetCPUQuota(q float64) {
	if q > 1 {
		q = 1
	}
	if q < 0.01 {
		q = 0.01
	}
	vm.cpuQuota = q
}

// Name returns the VM name.
func (vm *VM) Name() string { return vm.name }

// Table returns the VM's current page table.
func (vm *VM) Table() *mem.Table { return vm.table }

// ReplaceTable installs a fresh table (migration switchover hands the VM
// its destination-side image).
func (vm *VM) ReplaceTable(t *mem.Table) {
	if t.Len() != vm.table.Len() {
		panic("guest: replacement table has different geometry")
	}
	vm.table = t
}

// MemBytes returns the VM's memory size.
func (vm *VM) MemBytes() int64 { return vm.table.Bytes() }

// Pages returns the VM's memory size in pages.
func (vm *VM) Pages() int { return vm.table.Len() }

// Group returns the cgroup currently hosting the VM, or nil.
func (vm *VM) Group() *cgroup.Group { return vm.group }

// AttachGroup binds the VM to the cgroup managing its memory on the
// current host.
func (vm *VM) AttachGroup(g *cgroup.Group) { vm.group = g }

// SetFaultHandler installs a custom fault handler (the migration engines'
// UMEMD equivalent). Passing nil restores the default hypervisor handler.
func (vm *VM) SetFaultHandler(h FaultHandler) {
	if h == nil {
		vm.handler = defaultHandler{}
		return
	}
	vm.handler = h
}

// Running reports whether the VM's vCPUs are executing.
func (vm *VM) Running() bool { return vm.running }

// Resume starts (or restarts) the vCPUs. The time spent suspended is
// accumulated into Downtime.
func (vm *VM) Resume() {
	if vm.running {
		return
	}
	if vm.suspendedAt > 0 {
		vm.downtime += sim.Duration(vm.eng.Now() - vm.suspendedAt)
	}
	vm.running = true
	pended := vm.pended
	vm.pended = nil
	for _, a := range pended {
		if vm.Access(a.p, a.write, a.done) && a.done != nil {
			a.done()
		}
	}
}

// Suspend stops the vCPUs (workloads gate on Running).
func (vm *VM) Suspend() {
	if !vm.running {
		return
	}
	vm.running = false
	vm.suspendedAt = vm.eng.Now()
}

// Downtime returns the cumulative suspended time in ticks.
func (vm *VM) Downtime() sim.Duration { return vm.downtime }

// Faults returns the cumulative number of accesses that stalled.
func (vm *VM) Faults() int64 { return vm.faults }

// Access requests a read or write of page p. If the page is immediately
// usable, the reference (and dirty, for writes) bits are updated and Access
// returns true; done is not called. Otherwise Access routes the miss to the
// fault handler and returns false; done runs when the access has completed.
func (vm *VM) Access(p mem.PageID, write bool, done func()) bool {
	if !vm.running {
		// Suspended vCPUs cannot touch memory; the access completes after
		// resume (possibly on a different host's memory image).
		vm.pended = append(vm.pended, pendedAccess{p: p, write: write, done: done})
		return false
	}
	t := vm.table
	switch t.State(p) {
	case mem.StateResident:
		vm.hit(p, write)
		return true
	case mem.StateEvicting:
		if write {
			// A write cancels the in-flight eviction (the page would be
			// stale on the device).
			vm.group.CancelEviction(p)
		}
		vm.hit(p, write)
		return true
	default:
		w := vm.waits.Get()
		if w == nil {
			w = &faultWait{vm: vm}
			w.fireF = w.fire
		}
		w.p, w.write, w.done = p, write, done
		if vm.handler.HandleFault(vm, p, write, w.fireF) {
			// Resolved at once: the handler never calls fireF.
			w.done = nil
			vm.waits.Put(w)
			vm.hit(p, write)
			return true
		}
		vm.faults++
		return false
	}
}

func (vm *VM) hit(p mem.PageID, write bool) {
	vm.table.SetReferenced(p)
	if write {
		vm.table.SetDirty(p)
	}
}

// BulkPopulate makes a contiguous range of pages resident and dirty without
// paying per-access costs — dataset loading uses it to set up a scenario's
// initial memory image quickly. Reclaim still reacts normally afterwards.
func (vm *VM) BulkPopulate(from, to mem.PageID) {
	t := vm.table
	for p := from; p < to; p++ {
		switch t.State(p) {
		case mem.StateUntouched:
			t.SetState(p, mem.StateResident)
		case mem.StateEvicting:
			vm.group.CancelEviction(p)
		case mem.StateResident:
		default:
			// Swapped/faulting pages are left alone; bulk population is a
			// setup-time convenience and must not bypass the device path
			// for pages with device state.
			continue
		}
		t.SetReferenced(p)
		t.SetDirty(p)
	}
}

// defaultHandler is the hypervisor's normal memory path: zero-page reads
// for untouched pages, allocation on first write, cgroup swap-in for
// swapped pages.
type defaultHandler struct{}

func (defaultHandler) HandleFault(vm *VM, p mem.PageID, write bool, done func()) bool {
	t := vm.table
	switch t.State(p) {
	case mem.StateUntouched:
		if write {
			t.SetState(p, mem.StateResident)
		} else {
			// Reads of never-written memory hit the shared zero page and
			// allocate nothing.
			vm.zeroReads++
		}
		return true
	case mem.StateSwapped, mem.StateFaulting:
		if vm.group == nil {
			panic(fmt.Sprintf("guest: %s faulted on swapped page with no group", vm.name))
		}
		vm.group.FaultIn(p, done)
		return false
	default:
		// Raced to residency between Access and the handler; just finish.
		return true
	}
}
