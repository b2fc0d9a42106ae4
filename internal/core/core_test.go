package core

import (
	"strings"
	"testing"

	"agilemig/internal/host"
	"agilemig/internal/trace"
)

func TestTechniqueString(t *testing.T) {
	cases := map[Technique]string{
		PreCopy:       "pre-copy",
		PostCopy:      "post-copy",
		Agile:         "agile",
		Technique(99): "Technique(99)",
	}
	for tech, want := range cases {
		if got := tech.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tech), got, want)
		}
	}
}

func TestTuningDefaults(t *testing.T) {
	d := Tuning{}.withDefaults()
	if d != (Tuning{}) {
		t.Fatalf("zero Tuning must stay zero (ablation flags off, retries disarmed): %+v", d)
	}
	if r := (Tuning{DemandRetrySeconds: 0.5}).withDefaults(); r.DemandRetryMax != 8 {
		t.Fatalf("armed retries default to 8 re-sends, got %d", r.DemandRetryMax)
	}
}

func TestTuningOverridesPreserved(t *testing.T) {
	in := Tuning{BatchPages: 1, AutoConverge: true, DisableActivePush: true,
		NoRemoteSwap: true, GatherPrefetch: true, DemandRetrySeconds: 2,
		DemandRetryMax: 3, BandwidthCapBytesPerSec: 4}
	if out := in.withDefaults(); out != in {
		t.Fatalf("withDefaults clobbered overrides: %+v", out)
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Technique: Agile, VMName: "vm1", TotalSeconds: 12.5,
		DowntimeSeconds: 0.25, BytesTransferred: 1_000_000, PagesSent: 240,
		OffsetRecords: 10, DemandRequests: 3}
	s := r.String()
	for _, want := range []string{"agile", "vm1", "12.50s", "0.250s", "1.0 MB", "240 pages", "10 offset"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() missing %q: %s", want, s)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 512 * mib, datasetBytes: 100 * mib, resBytes: 512 * mib})
	for name, spec := range map[string]Spec{
		"no vm":     {Source: r.src, Dest: r.dst},
		"no source": {VM: r.vm, Dest: r.dst},
		"no dest":   {VM: r.vm, Source: r.src},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			Start(r.eng, r.net, PreCopy, spec)
		}()
	}
}

func TestDowntimeOrdering(t *testing.T) {
	// Post-copy and Agile suspend only for the CPU-state transfer; their
	// downtime must be sub-second. Pre-copy's stop-and-copy downtime is
	// larger but still bounded by the stop threshold.
	for _, tc := range []struct {
		tech  Technique
		agile bool
		maxS  float64
	}{{PostCopy, false, 0.5}, {Agile, true, 0.6}, {PreCopy, false, 1.5}} {
		r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 700 * mib, resBytes: 500 * mib,
			busy: true, opsPerSec: 5000, writeFrac: 0.1, agileSwap: tc.agile})
		res := r.migrate(t, tc.tech, 600)
		if res.DowntimeSeconds <= 0 {
			t.Errorf("%v: zero downtime is implausible", tc.tech)
		}
		if res.DowntimeSeconds > tc.maxS {
			t.Errorf("%v: downtime %.3fs exceeds %.1fs", tc.tech, res.DowntimeSeconds, tc.maxS)
		}
	}
}

func TestAgileNoRemoteSwapTransfersEverything(t *testing.T) {
	// The NoRemoteSwap ablation must behave like a hybrid without the VMD:
	// swapped pages travel in full, no offset records.
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib, agileSwap: true})
	spec := Spec{
		VM: r.vm, Source: r.src, Dest: r.dst,
		DestReservationBytes: r.vm.Group().ReservationBytes(),
		DestBackend:          r.dst.SharedSwapBackend(),
		Tuning:               Tuning{NoRemoteSwap: true},
	}
	mig := Start(r.eng, r.net, Agile, spec)
	for i := 0; i < 4_000_000 && !mig.Done(); i++ {
		r.eng.Step()
	}
	if !mig.Done() {
		t.Fatal("NoRemoteSwap migration did not complete")
	}
	res := mig.Result()
	if res.OffsetRecords != 0 {
		t.Fatalf("%d offset records without a remote swap device", res.OffsetRecords)
	}
	// Every populated page (the dataset) must travel in full — roughly
	// double what Agile-with-VMD would send for the 400 MiB resident set.
	if res.BytesTransferred < 800*mib {
		t.Fatalf("transferred %d < dataset size; cold pages skipped", res.BytesTransferred)
	}
}

func TestDisableActivePushNeverCompletes(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 512 * mib, datasetBytes: 300 * mib, resBytes: 512 * mib})
	spec := Spec{
		VM: r.vm, Source: r.src, Dest: r.dst,
		DestReservationBytes: 512 * mib,
		DestBackend:          r.dst.SharedSwapBackend(),
		Namespace:            r.ns,
		Tuning:               Tuning{DisableActivePush: true},
	}
	mig := Start(r.eng, r.net, PostCopy, spec)
	r.eng.RunSeconds(120)
	if mig.Done() {
		t.Fatal("demand-only migration completed; the paper says this is unbounded")
	}
	if !mig.Switched() {
		t.Fatal("execution never switched to the destination")
	}
}

func TestMigrationSwitchedAccessor(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 512 * mib, datasetBytes: 100 * mib, resBytes: 512 * mib})
	mig := Start(r.eng, r.net, PreCopy, Spec{
		VM: r.vm, Source: r.src, Dest: r.dst,
		DestReservationBytes: 512 * mib,
		DestBackend:          r.dst.SharedSwapBackend(),
	})
	if mig.Switched() {
		t.Fatal("switched before any transfer")
	}
	for i := 0; i < 2_000_000 && !mig.Done(); i++ {
		r.eng.Step()
	}
	if !mig.Switched() || !mig.Done() {
		t.Fatal("migration did not finish")
	}
}

func TestMigrationTraceRecordsLifecycle(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 700 * mib, resBytes: 400 * mib,
		busy: true, opsPerSec: 8000, writeFrac: 0.3, agileSwap: true})
	tr := trace.New(0)
	spec := Spec{
		VM: r.vm, Source: r.src, Dest: r.dst,
		DestReservationBytes: r.vm.Group().ReservationBytes(),
		DestBackend:          host.VMDSwapBackend(r.ns, r.dst.VMDClient()),
		Namespace:            r.ns,
		Trace:                tr,
	}
	mig := Start(r.eng, r.net, Agile, spec)
	for i := 0; i < 4_000_000 && !mig.Done(); i++ {
		r.eng.Step()
	}
	if !mig.Done() {
		t.Fatal("migration incomplete")
	}
	for _, k := range []trace.Kind{trace.MigrationStart, trace.Suspend,
		trace.CPUStateSent, trace.Switchover, trace.SourceDrained, trace.Complete} {
		if tr.Find(k) == nil {
			t.Errorf("trace missing %v event:\n%s", k, tr.String())
		}
	}
	// Events must be in lifecycle order.
	order := []trace.Kind{trace.MigrationStart, trace.Suspend, trace.Switchover, trace.Complete}
	last := -1.0
	for _, k := range order {
		e := tr.Find(k)
		if e.T < last {
			t.Errorf("%v at %.3fs out of order", k, e.T)
		}
		last = e.T
	}
}
