package pool

import "testing"

type rec struct{ id int }

// cycle takes n records (allocating when the freelist has none) and puts
// them all back, returning how many it had to allocate.
func cycle(f *Freelist[rec], n int) (allocated int) {
	held := make([]*rec, 0, n)
	for i := 0; i < n; i++ {
		r := f.Get()
		if r == nil {
			r = &rec{}
			allocated++
		}
		held = append(held, r)
	}
	for _, r := range held {
		f.Put(r)
	}
	return allocated
}

// TestFreelistReusesBurstyLoad: a load that repeatedly rises to 100
// records in use and falls back to none allocates only in its first burst.
func TestFreelistReusesBurstyLoad(t *testing.T) {
	var f Freelist[rec]
	if got := cycle(&f, 100); got != 100 {
		t.Fatalf("first burst allocated %d records, want 100", got)
	}
	for i := 0; i < 50; i++ {
		if got := cycle(&f, 100); got != 0 {
			t.Fatalf("burst %d allocated %d records, want 0", i+1, got)
		}
	}
	if f.InUse() != 0 {
		t.Fatalf("%d records in use after every burst completed", f.InUse())
	}
}

// TestFreelistSparesFollowLoadDown: after a burst of 1000 the spares are
// bounded by that peak, and once the load stays at one record for two
// windows they fall to the slack.
func TestFreelistSparesFollowLoadDown(t *testing.T) {
	var f Freelist[rec]
	cycle(&f, 1000)
	if n := len(f.spare); n > 1000+slack {
		t.Fatalf("%d spares after a burst of 1000", n)
	}
	for i := 0; i < 2*windowGets; i++ {
		cycle(&f, 1)
	}
	if n := len(f.spare); n > 1+slack {
		t.Fatalf("%d spares after two windows of single operations, want <= %d", n, 1+slack)
	}
}

// TestFreelistDrop: a dropped freelist holds no spares, and records put
// back afterwards are not kept.
func TestFreelistDrop(t *testing.T) {
	var f Freelist[rec]
	cycle(&f, 10)
	r := f.Get()
	f.Drop()
	f.Put(r)
	if len(f.spare) != 0 || f.InUse() != 0 {
		t.Fatalf("after Drop: %d spares, %d in use; want none", len(f.spare), f.InUse())
	}
}
