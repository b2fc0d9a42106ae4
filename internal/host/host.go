// Package host models one physical machine of the testbed: RAM with an OS
// overhead, a NIC on the simulated network, an optional SSD swap partition
// shared by every VM on the host (the pre-copy/post-copy configuration), an
// optional VMD client (the Agile configuration), and the set of cgroups
// holding the resident VMs.
package host

import (
	"fmt"

	"agilemig/internal/blockdev"
	"agilemig/internal/cgroup"
	"agilemig/internal/detorder"
	"agilemig/internal/guest"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/pool"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
)

// Config describes a host.
type Config struct {
	Name            string
	RAMBytes        int64
	OSOverheadBytes int64 // memory the host OS itself occupies (~200 MB in the paper)
	NetBytesPerSec  int64 // NIC bandwidth (1 Gbps Ethernet = 125_000_000)
}

// Host is one physical machine.
type Host struct {
	eng  *sim.Engine
	name string
	nic  *simnet.NIC

	ramPages int
	osPages  int

	swapDev    *blockdev.Device
	swapAlloc  *blockdev.SlotAllocator
	swapStream *blockdev.Stream // the kernel's swap queue, shared by every cgroup
	migStream  *blockdev.Stream // migration-scan readahead (sequential reader)
	vmdClient  *vmd.Client

	groups map[string]*cgroup.Group
	vms    map[string]*guest.VM

	// tr/reg, when set, wire observability into every cgroup created on
	// this host; nil keeps the host silent.
	tr  *trace.Trace
	reg *metrics.Registry
}

// New creates a host with a NIC on the given network.
func New(eng *sim.Engine, net *simnet.Network, cfg Config) *Host {
	if cfg.RAMBytes <= 0 {
		panic("host: no RAM")
	}
	return &Host{
		eng:      eng,
		name:     cfg.Name,
		nic:      net.NewNIC(cfg.Name, cfg.NetBytesPerSec),
		ramPages: mem.BytesToPages(cfg.RAMBytes),
		osPages:  mem.BytesToPages(cfg.OSOverheadBytes),
		groups:   make(map[string]*cgroup.Group),
		vms:      make(map[string]*guest.VM),
	}
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// SetObserver attaches a trace bus and metrics registry: the host's RAM
// occupancy and swap device register as gauges, and every cgroup created
// by AddVM from now on emits resize/swap events and registers its own
// gauges. Either argument may be nil.
func (h *Host) SetObserver(tr *trace.Trace, reg *metrics.Registry) {
	h.tr = tr
	h.reg = reg
	reg.Gauge(h.name+"/used.ram.pages", func() float64 { return float64(h.UsedRAMPages()) })
	reg.Gauge(h.name+"/free.ram.pages", func() float64 { return float64(h.FreeRAMPages()) })
	if h.swapDev != nil {
		h.swapDev.RegisterMetrics(reg)
	}
}

// Observe wires an externally constructed group (e.g. a migration's
// destination cgroup) into this host's trace bus and registry, exactly as
// AddVM would have.
func (h *Host) Observe(g *cgroup.Group) {
	g.SetEmitter(h.tr.Emitter(trace.ScopeVM, g.Name()))
	g.RegisterMetrics(h.reg)
}

// NIC returns the host's network interface.
func (h *Host) NIC() *simnet.NIC { return h.nic }

// RAMPages returns total physical memory in pages.
func (h *Host) RAMPages() int { return h.ramPages }

// ConfigureSharedSwap attaches an SSD swap partition of the given size that
// all VMs on this host share (the paper's 30 GB partition on the 128 GB
// Crucial SSD).
func (h *Host) ConfigureSharedSwap(dev blockdev.Config, partitionBytes int64) {
	h.swapDev = blockdev.New(h.eng, dev)
	h.swapAlloc = blockdev.NewSlotAllocator(uint32(mem.BytesToPages(partitionBytes)))
	h.swapStream = h.swapDev.NewStreamWeighted("kernel-swap", 4)
	h.migStream = h.swapDev.NewStreamWeighted("migration-readahead", 1)
}

// SwapDevice returns the shared swap partition's device, or nil.
func (h *Host) SwapDevice() *blockdev.Device { return h.swapDev }

// SetVMDClient attaches this host's VMD client module.
func (h *Host) SetVMDClient(c *vmd.Client) { h.vmdClient = c }

// VMDClient returns the host's VMD client, or nil.
func (h *Host) VMDClient() *vmd.Client { return h.vmdClient }

// SharedSwapBackend returns a cgroup swap backend over the host's shared
// partition. Every group's faults and evictions go through ONE kernel swap
// queue — Linux swap I/O is issued by kswapd and direct reclaim with no
// per-cgroup isolation, which is why thrashing VMs drag each other (and
// demand-paging service) down. Migration-driven clustered readahead uses a
// second stream: a sequential reader the elevator treats fairly against
// the random swap storm.
func (h *Host) SharedSwapBackend() cgroup.SwapBackend {
	if h.swapDev == nil {
		panic("host: " + h.name + " has no shared swap configured")
	}
	return &PartitionBackend{kernel: h.swapStream, mig: h.migStream, alloc: h.swapAlloc}
}

// VMDSwapBackend returns a cgroup swap backend over the VM's private VMD
// namespace, accessed through the given host's VMD client.
func VMDSwapBackend(ns *vmd.Namespace, client *vmd.Client) cgroup.SwapBackend {
	return &NamespaceBackend{ns: ns, client: client}
}

// AddVM places a VM on this host inside a fresh cgroup with the given
// reservation and swap backend, and resumes nothing — callers decide when
// the VM runs.
func (h *Host) AddVM(vm *guest.VM, reservationBytes int64, backend cgroup.SwapBackend) *cgroup.Group {
	if _, dup := h.vms[vm.Name()]; dup {
		panic(fmt.Sprintf("host: %s already hosts %s", h.name, vm.Name()))
	}
	g := cgroup.New(h.eng, h.name+"/"+vm.Name(), vm.Table(), backend, reservationBytes)
	if h.tr != nil || h.reg != nil {
		h.Observe(g)
	}
	h.groups[vm.Name()] = g
	h.vms[vm.Name()] = vm
	vm.AttachGroup(g)
	return g
}

// AdoptGroup registers an externally constructed group (migration builds
// the destination group before the VM arrives). Adopting over a live group
// for the same VM would silently orphan that group's reservation and page
// accounting — it means two migrations are racing for one VM — so it
// panics instead.
func (h *Host) AdoptGroup(vm *guest.VM, g *cgroup.Group) {
	if _, ok := h.groups[vm.Name()]; ok {
		panic(fmt.Sprintf("host %s: AdoptGroup over live group for VM %s", h.name, vm.Name()))
	}
	h.groups[vm.Name()] = g
	h.vms[vm.Name()] = vm
}

// RemoveVM drops the VM's cgroup from this host's accounting (after its
// memory has been freed by a completed migration).
func (h *Host) RemoveVM(name string) {
	delete(h.groups, name)
	delete(h.vms, name)
}

// Group returns the cgroup of a hosted VM, or nil.
func (h *Host) Group(vmName string) *cgroup.Group { return h.groups[vmName] }

// VMs returns the names of the VMs on this host, in ascending order.
func (h *Host) VMs() []string {
	return detorder.Keys(h.vms)
}

// VM returns a hosted VM by name, or nil.
func (h *Host) VM(name string) *guest.VM { return h.vms[name] }

// UsedRAMPages returns OS overhead plus every hosted group's in-RAM pages.
func (h *Host) UsedRAMPages() int {
	used := h.osPages
	for _, g := range h.groups {
		used += g.Table().InRAM()
	}
	return used
}

// FreeRAMPages returns the pages not used by the OS or any VM.
func (h *Host) FreeRAMPages() int { return h.ramPages - h.UsedRAMPages() }

// FreeReservationBytes returns RAM not yet promised to any group — the
// headroom the cluster manager can hand out when rebalancing reservations.
func (h *Host) FreeReservationBytes() int64 {
	free := mem.PagesToBytes(h.ramPages - h.osPages)
	for _, g := range h.groups {
		free -= g.ReservationBytes()
	}
	return free
}

// PartitionBackend adapts the shared SSD swap partition to the cgroup
// SwapBackend interface. Slots are allocated from the host-wide pool;
// single-page faults and evictions share the host's kernel swap queue,
// clustered (migration readahead) reads ride the sequential-reader stream.
type PartitionBackend struct {
	kernel *blockdev.Stream
	mig    *blockdev.Stream
	alloc  *blockdev.SlotAllocator
}

// SlotFor allocates a slot on the partition.
func (b *PartitionBackend) SlotFor(_ mem.PageID) (uint32, bool) { return b.alloc.Alloc() }

// Release frees the slot.
func (b *PartitionBackend) Release(off uint32) { b.alloc.Free(off) }

// WritePage writes one page to the device.
func (b *PartitionBackend) WritePage(_ uint32, done func()) { b.kernel.Write(mem.PageSize, done) }

// ReadPage reads one page from the device.
func (b *PartitionBackend) ReadPage(_ uint32, done func()) { b.kernel.Read(mem.PageSize, done) }

// ReadCluster reads several slots as one device operation (swap
// readahead): a single request's IOPS cost, the cluster's bandwidth cost.
func (b *PartitionBackend) ReadCluster(offs []uint32, done func()) {
	b.mig.Read(mem.PagesToBytes(len(offs)), done)
}

// NamespaceBackend adapts a per-VM VMD namespace to the cgroup SwapBackend
// interface: the swap offset of page p is simply p, and reads/writes travel
// over the network to the intermediate hosts through one host's VMD client.
type NamespaceBackend struct {
	ns     *vmd.Namespace
	client *vmd.Client
	joins  pool.Freelist[readJoin]
}

// readJoin runs an unbatched cluster read's done once its last page read
// completes. It recycles as it runs done; a join one of whose reads never
// completes (a message a loss window dropped) is left to the garbage
// collector.
type readJoin struct {
	b     *NamespaceBackend
	left  int
	done  func()
	readF func()
}

// pageRead counts one page read of the cluster down.
func (j *readJoin) pageRead() {
	if j.left--; j.left > 0 {
		return
	}
	done := j.done
	j.done = nil
	j.b.joins.Put(j)
	if done != nil {
		done()
	}
}

// Namespace returns the underlying VMD namespace.
func (b *NamespaceBackend) Namespace() *vmd.Namespace { return b.ns }

// Client returns the VMD client the backend goes through.
func (b *NamespaceBackend) Client() *vmd.Client { return b.client }

// SlotFor maps the page to its identity offset.
func (b *NamespaceBackend) SlotFor(p mem.PageID) (uint32, bool) { return uint32(p), true }

// Release frees the page's slot on the intermediate servers.
func (b *NamespaceBackend) Release(off uint32) { b.ns.Free(off) }

// WritePage stores the page in the VMD.
func (b *NamespaceBackend) WritePage(off uint32, done func()) { b.ns.Write(b.client, off, done) }

// ReadPage fetches the page from the VMD.
func (b *NamespaceBackend) ReadPage(off uint32, done func()) { b.ns.Read(b.client, off, done) }

// ReadCluster fans a batch out to the intermediate servers; done runs when
// every page has arrived. With store batching enabled the namespace groups
// contiguous same-server runs into single transfers (and feeds its
// readahead detector); unbatched stores fan out page-at-a-time — there is
// no IOPS amortization on the network path, the bytes dominate.
func (b *NamespaceBackend) ReadCluster(offs []uint32, done func()) {
	if len(offs) == 0 {
		done()
		return
	}
	if b.ns.BatchPages() > 1 || b.ns.ReadaheadEnabled() {
		b.ns.ReadBatch(b.client, offs, done)
		return
	}
	j := b.joins.Get()
	if j == nil {
		j = &readJoin{b: b}
		j.readF = j.pageRead
	}
	j.left, j.done = len(offs), done
	for _, off := range offs {
		b.ns.Read(b.client, off, j.readF)
	}
}
