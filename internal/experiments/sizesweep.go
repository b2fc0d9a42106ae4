package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/vmd"
)

// SizeSweepConfig shapes the Figures 7-8 experiment: a single VM of
// growing size is migrated from a 6 GB host, idle or busy; total migration
// time (Fig. 7) and data transferred (Fig. 8) are recorded per technique.
type SizeSweepConfig struct {
	// VMSizes in bytes (pre-scale). Defaults to the paper's 2..12 GB.
	VMSizes []int64
	Idle    bool // also run the idle-VM variant; the busy variant always runs
	Scale   float64
	Seed    uint64
	// TimeoutSeconds bounds each individual migration (scaled).
	TimeoutSeconds float64
	// Parallelism caps the worker count for fanning sweep points across
	// cores: 0 = GOMAXPROCS, 1 = serial. Each point runs on its own testbed
	// with its own engine, so results are identical at any setting.
	Parallelism int
	// DisableFastForward steps tick by tick (see cluster.Config).
	DisableFastForward bool
	// VMD selects the far-memory store's v2 mechanisms; the zero value is
	// the flat v1 store (byte-identical).
	VMD vmd.StoreConfig
}

// DefaultSizeSweepConfig returns the paper's sweep.
func DefaultSizeSweepConfig() SizeSweepConfig {
	var sizes []int64
	for g := int64(2); g <= 12; g += 2 {
		sizes = append(sizes, g*cluster.GiB)
	}
	return SizeSweepConfig{
		VMSizes:        sizes,
		Idle:           true,
		Scale:          1.0,
		Seed:           1,
		TimeoutSeconds: 4000,
	}
}

// SizeSweepRow is one point of Figures 7 and 8.
type SizeSweepRow struct {
	Technique       core.Technique
	VMBytes         int64 // pre-scale nominal size
	Busy            bool
	TotalSeconds    float64
	DataMB          float64
	DowntimeSeconds float64
	Outcome         cluster.Outcome
}

// Completed reports whether the migration finished (source drained).
//
//lint:outcomecheck derived view; the full verdict stays in r.Outcome
func (r SizeSweepRow) Completed() bool { return r.Outcome == cluster.OutcomeCompleted }

// SizeSweepHostRAM is the host memory for the sweep (§V-B keeps it at 6 GB
// while the VM grows past it).
const SizeSweepHostRAM = 6 * cluster.GiB

// RunSizeSweep executes the sweep, one fresh testbed per point; independent
// points fan out across cfg.Parallelism workers.
func RunSizeSweep(cfg SizeSweepConfig) []SizeSweepRow {
	s := cfg.Scale
	if s <= 0 {
		s = 1
	}
	variants := []bool{true}
	if cfg.Idle {
		variants = []bool{false, true}
	}
	type point struct {
		tech core.Technique
		busy bool
		size int64
	}
	var points []point
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		for _, busy := range variants {
			for _, size := range cfg.VMSizes {
				points = append(points, point{tech, busy, size})
			}
		}
	}
	return runPoints(cfg.Parallelism, len(points), func(i int) SizeSweepRow {
		p := points[i]
		return runSweepPoint(cfg, p.tech, p.size, p.busy, s)
	})
}

func runSweepPoint(cfg SizeSweepConfig, tech core.Technique, vmBytes int64, busy bool, s float64) SizeSweepRow {
	tcfg := cluster.DefaultConfig()
	tcfg.Seed = cfg.Seed
	tcfg.HostRAMBytes = scaleBytes(SizeSweepHostRAM, s)
	tcfg.SwapPartitionBytes = scaleBytes(30*cluster.GiB, s)
	tcfg.IntermediateRAMBytes = scaleBytes(32*cluster.GiB, s)
	tcfg.DisableFastForward = cfg.DisableFastForward
	tcfg.VMD = cfg.VMD
	tb := cluster.New(tcfg)

	agile := tech == core.Agile
	mem := scaleBytes(vmBytes, s)
	// Reservation: whatever fits beside the host OS, capped at the VM size
	// (~5.5 GB on the 6 GB host).
	resv := tcfg.HostRAMBytes - scaleBytes(500*cluster.MiB, s)
	if resv > mem {
		resv = mem
	}
	h := tb.DeployVM("vm", mem, resv, agile)
	// The VM's memory is populated (page cache / dataset) leaving ~500 MB
	// free, per §V-B: "a dataset almost as large as the memory size".
	dataset := mem - scaleBytes(500*cluster.MiB, s)
	if dataset < cluster.MiB {
		dataset = cluster.MiB
	}
	h.LoadDataset(dataset)
	if busy {
		ccfg := ycsbClient()
		h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
	}
	// Settle reclaim (time scales with the amount to evict).
	tb.RunSeconds(scaleSeconds(200, s))

	mustMigrate(tb, h, tech, resv)
	done := tb.RunUntilMigrated(h, scaleSeconds(cfg.TimeoutSeconds, s))
	row := SizeSweepRow{
		Technique: tech,
		VMBytes:   vmBytes,
		Busy:      busy,
		Outcome:   done,
	}
	if h.Result != nil {
		row.TotalSeconds = h.Result.TotalSeconds
		row.DataMB = float64(h.Result.BytesTransferred) / 1e6
		row.DowntimeSeconds = h.Result.DowntimeSeconds
	}
	return row
}

// PrintSizeSweep renders the Fig. 7 (time) and Fig. 8 (data) tables.
func PrintSizeSweep(w io.Writer, rows []SizeSweepRow) {
	variant := func(b bool) string {
		if b {
			return "busy"
		}
		return "idle"
	}
	for _, fig := range []struct {
		title string
		cell  func(SizeSweepRow) string
	}{
		{"Figure 7: total migration time (s) vs VM size", func(r SizeSweepRow) string {
			if r.Outcome == cluster.OutcomeAborted {
				return "aborted"
			}
			if !r.Completed() {
				return ">timeout"
			}
			return fmt.Sprintf("%.1f", r.TotalSeconds)
		}},
		{"Figure 8: data transferred (MB) vs VM size", func(r SizeSweepRow) string {
			return fmt.Sprintf("%.0f", r.DataMB)
		}},
	} {
		fmt.Fprintln(w, fig.title)
		fmt.Fprintf(w, "%-22s", "config")
		sizes := uniqueSizes(rows)
		for _, sz := range sizes {
			fmt.Fprintf(w, "%10s", fmt.Sprintf("%dGB", sz/cluster.GiB))
		}
		fmt.Fprintln(w)
		for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
			for _, busy := range []bool{false, true} {
				line := fmt.Sprintf("%-22s", fmt.Sprintf("%s (%s)", tech, variant(busy)))
				any := false
				for _, sz := range sizes {
					cell := ""
					for _, r := range rows {
						if r.Technique == tech && r.Busy == busy && r.VMBytes == sz {
							cell = fig.cell(r)
							any = true
						}
					}
					line += fmt.Sprintf("%10s", cell)
				}
				if any {
					fmt.Fprintln(w, line)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

func uniqueSizes(rows []SizeSweepRow) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range rows {
		if !seen[r.VMBytes] {
			seen[r.VMBytes] = true
			out = append(out, r.VMBytes)
		}
	}
	return out
}
