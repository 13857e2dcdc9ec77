// Live-reconfiguration latency: what a traffic-matrix shift costs on the
// running engine when the control loop hot-swaps the recompiled
// configuration (drain → migrate state → publish the new epoch) versus
// tearing the engine down and cold-starting — the §6.2 Topo/TM-change
// scenario extended from "produce new rules" to "apply them live". The
// hot swap keeps every state entry (the firewall's established table
// survives the re-route); the cold restart pays the full P1–P6 pipeline
// and loses all of them.
package bench

import (
	"fmt"
	"strings"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/place"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// ReconfigRow is one (mode, shardedness) cell of the reconfiguration
// comparison. For hot-swap, Recompile is the incremental P5+P6 time, Swap
// the ApplyConfig drain-migrate-publish latency, and Preserved the state
// entries that survived; for cold-restart, Recompile is the full cold
// pipeline, Swap the engine rebuild, and Preserved is zero by
// construction.
type ReconfigRow struct {
	Mode       string        `json:"mode"` // hot-swap | cold-restart
	Sharded    bool          `json:"sharded"`
	Packets    int           `json:"packets"`
	StateVars  int           `json:"state_vars"`
	Moves      int           `json:"moves"`
	Preserved  int           `json:"entries_preserved"`
	Divergence float64       `json:"divergence"`
	Recompile  time.Duration `json:"recompile_ns"`
	Swap       time.Duration `json:"swap_ns"`
	Total      time.Duration `json:"total_ns"`
}

// Reconfig measures hot swap versus cold restart on the campus monitor
// workload, sharded off and on. The engine is warmed with a trace from the
// optimized-for matrix, then fed a trace from a shifted matrix so the
// observed matrix genuinely drifts; the controller then fires once.
func Reconfig(s Scale) ([]ReconfigRow, error) {
	t := topo.Campus(s.Capacity)
	tmA := traffic.Gravity(t, s.Traffic, 1)
	tmB := traffic.Gravity(t, s.Traffic, 2)
	n := 4000
	if s.Name == "full" {
		n = 40000
	}
	warm := ReplayIngress(tmA.Replay(n, 7))
	shift := ReplayIngress(tmB.Replay(n, 8))

	var rows []ReconfigRow
	for _, sharded := range []bool{false, true} {
		policy, err := MonitorWorkload(sharded, 6)
		if err != nil {
			return nil, err
		}
		var shards []shard.Plan
		if sharded {
			shards = append(shards, shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6}))
		}
		comp, err := core.ColdStart(policy, t, tmA, place.Options{Method: place.Heuristic})
		if err != nil {
			return nil, err
		}
		opts := dataplane.Options{Workers: 4, Window: 256}

		// Hot swap: warm the engine, drift the observation, fire the loop.
		eng := dataplane.NewEngine(comp.Config, opts)
		if err := eng.InjectReplay(warm); err != nil {
			eng.Close()
			return nil, err
		}
		eng.ResetObserved()
		if err := eng.InjectReplay(shift); err != nil {
			eng.Close()
			return nil, err
		}
		ctl := ctrl.New(comp, eng, ctrl.Options{
			Threshold: 0.05,
			MinSample: 1,
			Mode:      ctrl.RePlace,
			Shards:    shards,
			Combine:   sumValues,
		})
		preserved := countEntries(eng.GlobalState())
		start := time.Now()
		rec, err := ctl.Step()
		total := time.Since(start)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("reconfig sharded=%v: %w", sharded, err)
		}
		if rec == nil {
			eng.Close()
			return nil, fmt.Errorf("reconfig sharded=%v: controller saw no drift", sharded)
		}
		after := countEntries(eng.GlobalState())
		if after < preserved {
			eng.Close()
			return nil, fmt.Errorf("reconfig sharded=%v: %d entries lost in swap", sharded, preserved-after)
		}
		eng.Close()
		rows = append(rows, ReconfigRow{
			Mode:       "hot-swap",
			Sharded:    sharded,
			Packets:    2 * n,
			StateVars:  len(comp.Result.Placement),
			Moves:      len(rec.Plan.Moves),
			Preserved:  preserved,
			Divergence: rec.Divergence,
			Recompile:  rec.Compile,
			Swap:       rec.Swap,
			Total:      total,
		})

		// Cold restart: full pipeline plus a fresh engine; state is gone.
		start = time.Now()
		comp2, err := core.ColdStart(policy, t, tmB, place.Options{Method: place.Heuristic})
		if err != nil {
			return nil, err
		}
		recompile := time.Since(start)
		start = time.Now()
		eng2 := dataplane.NewEngine(comp2.Config, opts)
		rebuild := time.Since(start)
		eng2.Close()
		rows = append(rows, ReconfigRow{
			Mode:      "cold-restart",
			Sharded:   sharded,
			Packets:   2 * n,
			StateVars: len(comp2.Result.Placement),
			Recompile: recompile,
			Swap:      rebuild,
			Total:     recompile + rebuild,
		})
	}
	return rows, nil
}

// sumValues is the counter-merge combine: shard folds add.
func sumValues(a, b values.Value) values.Value {
	return values.Int(a.AsInt() + b.AsInt())
}

// countEntries sums the bindings across all variables of a store.
func countEntries(st *state.Store) int {
	n := 0
	for _, v := range st.Vars() {
		n += len(st.Entries(v))
	}
	return n
}

// FormatReconfig renders the comparison.
func FormatReconfig(rows []ReconfigRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-8s %6s %6s %10s %12s %12s %12s\n",
		"Mode", "Sharded", "Vars", "Moves", "Preserved", "Recompile", "Swap", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-8v %6d %6d %10d %12s %12s %12s\n",
			r.Mode, r.Sharded, r.StateVars, r.Moves, r.Preserved, fd(r.Recompile), fd(r.Swap), fd(r.Total))
	}
	return b.String()
}
