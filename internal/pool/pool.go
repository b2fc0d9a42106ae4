// Package pool recycles the records that carry one operation in flight on
// the simulator's swap path: a guest access waiting on a fault, a cgroup
// swap-in or write-back, a VMD copy or read transfer. Each record binds its
// callbacks as method values once, when it is first created, so an
// operation that reuses a record allocates nothing.
//
// A Freelist never grows to the peak number of operations in flight and
// stays there. It keeps spares only up to its owner's recent peak of
// records in use, plus a small constant: the peak is a windowed maximum
// over the last windowGets Gets, so a load that comes in bursts reuses
// every record, and once the load falls the spares fall with it within two
// windows and the garbage collector takes the rest.
package pool

const (
	// slack is how many records a freelist keeps beyond its recent peak:
	// a lone operation issued right after the previous one completed
	// finds its record waiting.
	slack = 4
	// windowGets is the length, in Gets, of one peak-tracking window.
	windowGets = 1024
)

// Freelist is a LIFO of spare records of type T. The zero value is ready to
// use. It is not safe for concurrent use; each owner (a cgroup, a VMD pool,
// a VM) lives on one simulation shard.
type Freelist[T any] struct {
	spare    []*T
	inUse    int
	peak     int // most records in use during the current window
	prevPeak int // ... and during the window before it
	gets     int // Gets in the current window
	dropped  bool
}

// Get returns a spare record, or nil when there is none: the caller then
// allocates one and binds its callbacks. Either way the record counts as
// in use until Put takes it back.
func (f *Freelist[T]) Get() *T {
	f.inUse++
	f.peak = max(f.peak, f.inUse)
	if f.gets++; f.gets == windowGets {
		f.prevPeak, f.peak, f.gets = f.peak, f.inUse, 0
	}
	n := len(f.spare)
	if n == 0 {
		return nil
	}
	r := f.spare[n-1]
	f.spare[n-1] = nil
	f.spare = f.spare[:n-1]
	return r
}

// Put takes back a record whose operation has finished and which no
// pending callback can reach any more. The caller clears the fields that
// refer to other objects first. The record becomes a spare while spares
// and records in use together stay within the recent peak plus the slack;
// otherwise it is left to the garbage collector, and so are any spares
// beyond that bound.
func (f *Freelist[T]) Put(r *T) {
	f.inUse--
	keep := 0
	if !f.dropped {
		keep = max(f.peak, f.prevPeak) + slack - f.inUse
	}
	if len(f.spare) < keep {
		f.spare = append(f.spare, r)
		return
	}
	for len(f.spare) > max(keep, 0) {
		f.spare[len(f.spare)-1] = nil
		f.spare = f.spare[:len(f.spare)-1]
	}
}

// Drop releases every spare and keeps none from now on: the owner has
// stopped issuing operations. Records still in use may be Put afterwards.
func (f *Freelist[T]) Drop() {
	f.spare = nil
	f.dropped = true
}

// InUse returns how many records are handed out and not yet put back.
func (f *Freelist[T]) InUse() int { return f.inUse }
