// Multi-core scaling of the two concurrency disciplines: the same
// unsharded monitor workload replayed through the lock-discipline engine
// and the state-compute replication engine across worker counts. The
// unsharded workload is the adversarial case for locks — every packet
// increments count[inport] on the one owning switch, so all workers
// serialize on its stripe — while the replication discipline gives each
// worker a private replica and ships the increments through rings, so pps
// should scale with cores (the claim of "State-Compute Replication",
// arXiv 2309.14647). On a single-core host both columns flatline; the
// GOMAXPROCS and NumCPU columns exist so a reader can tell measured
// scaling from a core-starved run (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// ScaleRow is one (mode, workers) cell of the scaling matrix.
type ScaleRow struct {
	Mode         string        `json:"mode"` // "locks" or "replication"
	Workers      int           `json:"workers"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	NumCPU       int           `json:"numcpu"`
	Packets      int           `json:"packets"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	PPS          float64       `json:"pps"`
	Speedup      float64       `json:"speedup_vs_1"` // vs the 1-worker row of the same mode
	LockSuspends int64         `json:"lock_suspends"`
	LockWaitNs   int64         `json:"lock_wait_ns"`
	Delivered    int64         `json:"delivered"`
}

// ScaleWorkers is the worker axis of the matrix: 1 (baseline), 2, the
// acceptance point 4, and the host width when it offers more.
func ScaleWorkers(cpus int) []int {
	ws := []int{1, 2, 4}
	if cpus > 4 {
		ws = append(ws, cpus)
	}
	return ws
}

// ScaleMatrix replays the unsharded monitor trace through both disciplines
// at each worker count. cpus pins GOMAXPROCS for the measured region
// (0 keeps the host default), restored before returning.
func ScaleMatrix(s Scale, cpus int) ([]ScaleRow, error) {
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)

	t := topo.Campus(s.Capacity)
	tm := traffic.Gravity(t, s.Traffic, 1)
	n := 4000
	if s.Name == "full" {
		n = 40000
	}
	batch := ReplayIngress(tm.Replay(n, 7))

	policy, err := MonitorWorkload(false, 6)
	if err != nil {
		return nil, err
	}
	comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return nil, err
	}

	var rows []ScaleRow
	for _, replicate := range []bool{false, true} {
		var base float64
		for _, w := range ScaleWorkers(cpus) {
			eng := dataplane.NewEngine(comp.Config, dataplane.Options{
				Workers:          w,
				Window:           256,
				StateReplication: replicate,
			})
			if replicate && eng.ExecMode() != dataplane.ModeReplication {
				reasons := eng.ReplicationFallback()
				eng.Close()
				return nil, fmt.Errorf("scale: monitor workload refused replication: %s",
					strings.Join(reasons, " | "))
			}
			start := time.Now()
			err := eng.InjectReplay(batch)
			elapsed := time.Since(start)
			st := eng.Stats()
			mode := eng.ExecMode().String()
			eng.Close()
			if err != nil {
				return nil, fmt.Errorf("scale mode=%s workers=%d: %w", mode, w, err)
			}
			pps := float64(n) / elapsed.Seconds()
			if w == 1 {
				base = pps
			}
			rows = append(rows, ScaleRow{
				Mode:         mode,
				Workers:      w,
				GOMAXPROCS:   cpus,
				NumCPU:       runtime.NumCPU(),
				Packets:      n,
				Elapsed:      elapsed,
				PPS:          pps,
				Speedup:      pps / base,
				LockSuspends: st.LockSuspends,
				LockWaitNs:   st.LockWaitNs,
				Delivered:    st.Delivered,
			})
		}
	}
	return rows, nil
}

// FormatScale renders the matrix.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %11s %12s %10s %10s %12s\n",
		"Mode", "Workers", "GOMAXPROCS", "PPS", "Speedup", "LockSusp", "LockWait")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %11d %12.0f %9.2fx %10d %12s\n",
			r.Mode, r.Workers, r.GOMAXPROCS, r.PPS, r.Speedup,
			r.LockSuspends, time.Duration(r.LockWaitNs))
	}
	if len(rows) > 0 && rows[0].GOMAXPROCS < 4 {
		fmt.Fprintf(&b, "note: GOMAXPROCS=%d (NumCPU=%d) — scaling claims need >=4 cores; on fewer, compare the LockSusp column, not Speedup\n",
			rows[0].GOMAXPROCS, rows[0].NumCPU)
	}
	return b.String()
}
