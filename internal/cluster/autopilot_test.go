package cluster

import (
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/workload"
	"agilemig/internal/wss"
)

// autopilotRig deploys nVMs with working sets the clients can widen later.
func autopilotRig(t *testing.T, nVMs int) (*Testbed, []*VMHandle) {
	t.Helper()
	cfg := smallConfig() // 6 GiB hosts
	tb := New(cfg)
	var hs []*VMHandle
	for i := 0; i < nVMs; i++ {
		name := string(rune('a' + i))
		h := tb.DeployVM(name, 2*GiB, 1536*MiB, true)
		h.LoadDataset(1536 * MiB)
		ccfg := workload.YCSB()
		ccfg.MaxOpsPerSecond = 4000
		// Start with a small hot fraction.
		h.AttachClient(ccfg, dist.NewUniform(256*MiB/1024))
		hs = append(hs, h)
	}
	return tb, hs
}

func autopilotConfig() AutopilotConfig {
	tr := wss.DefaultTrackerConfig()
	tr.MinReservationBytes = 128 * MiB
	return AutopilotConfig{
		HighWatermarkBytes: 2200 * MiB,
		LowWatermarkBytes:  1600 * MiB,
		CheckInterval:      2,
		Tracker:            tr,
		Technique:          core.Agile,
	}
}

func TestAutopilotQuiescentWhenUnderWatermark(t *testing.T) {
	tb, _ := autopilotRig(t, 2)
	ap := tb.StartAutopilot(autopilotConfig())
	tb.RunSeconds(400)
	if len(ap.Migrated()) != 0 {
		t.Fatalf("autopilot migrated %v without pressure", ap.Migrated())
	}
	// Trackers must be shrinking reservations toward the hot fractions.
	for _, name := range tb.Source.VMs() {
		if est := ap.Tracker(name).EstimateBytes(); est > 1200*MiB {
			t.Fatalf("tracker for %s still at %d MiB", name, est/MiB)
		}
	}
}

func TestAutopilotMigratesUnderPressure(t *testing.T) {
	tb, hs := autopilotRig(t, 2)
	ap := tb.StartAutopilot(autopilotConfig())
	// Converge to small working sets first.
	tb.RunSeconds(300)
	// Blow up both VMs' working sets: aggregate exceeds the high
	// watermark; the autopilot must move (at least) one VM away.
	for _, h := range hs {
		h.Client.SetDist(dist.NewUniform(1400 * MiB / 1024))
	}
	tb.RunSeconds(900)
	if len(ap.Migrated()) == 0 {
		t.Fatal("autopilot never migrated despite sustained pressure")
	}
	if len(tb.Source.VMs()) >= 2 {
		t.Fatalf("source still hosts %v", tb.Source.VMs())
	}
	// The migrated VM must be live at the destination.
	name := ap.Migrated()[0]
	if tb.Dest.VM(name) == nil {
		t.Fatalf("migrated VM %s not at destination", name)
	}
	ap.Stop()
}

func TestAutopilotStop(t *testing.T) {
	tb, hs := autopilotRig(t, 2)
	ap := tb.StartAutopilot(autopilotConfig())
	tb.RunSeconds(50)
	ap.Stop()
	for _, h := range hs {
		h.Client.SetDist(dist.NewUniform(1400 * MiB / 1024))
	}
	tb.RunSeconds(300)
	if len(ap.Migrated()) != 0 {
		t.Fatal("stopped autopilot migrated a VM")
	}
}

// TestAutopilotCountsOnlySucceededMoves: a migration rolled back to the
// source is not a move, and the VM queued behind it still migrates.
func TestAutopilotCountsOnlySucceededMoves(t *testing.T) {
	tb, hs := autopilotRig(t, 2)
	ap := tb.StartAutopilot(autopilotConfig())
	ap.onPressure([]string{"a", "b"})
	tb.RunSeconds(1)
	if m := hs[0].Migration; m == nil || !m.Abort() {
		t.Fatal("could not roll back the first queued migration")
	}
	tb.RunSeconds(600)
	if got := ap.Migrated(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Migrated() = %v, want [b]", got)
	}
	if tb.Source.VM("a") == nil || tb.Dest.VM("b") == nil {
		t.Fatalf("source hosts %v, dest hosts %v", tb.Source.VMs(), tb.Dest.VMs())
	}
	ap.Stop()
}
