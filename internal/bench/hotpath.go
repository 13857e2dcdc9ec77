// Data-plane hot path: what one packet costs after the link step. The
// throughput sweep (throughput.go) measures the whole concurrent engine;
// this experiment isolates the two layers the compiled fast path
// optimizes — the single-core engine replay (pps, ns and allocations per
// packet) and the bare steady-state switch visit (the per-packet work a
// NetASM VM does once traffic reaches it) — and compares the replay
// against the single-core throughput rows committed before linking
// existed (PR 2's BENCH.json), on the same campus matrix replay.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// Committed single-core throughput of the pre-linking engine (the
// workers=1 rows of BENCH.json as of PR 2, measured on the same campus
// monitor replay): the "before" of the hotpath speedup column. They are
// constants rather than re-measurements because the interpreter they
// measured no longer exists; EXPERIMENTS.md records the provenance.
const (
	baselinePPSUnsharded = 134234
	baselinePPSSharded   = 173709
)

// HotPathRow is one measurement of the compiled fast path.
type HotPathRow struct {
	// Case names the measurement: "replay/unsharded" and "replay/sharded"
	// are single-core engine replays of the campus monitor matrix;
	// "visit/firewall-owner" is the bare steady-state stateful-firewall
	// switch visit (no engine around it).
	Case        string  `json:"case"`
	Packets     int     `json:"packets,omitempty"`
	PPS         float64 `json:"pps,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// BaselinePPS and Speedup compare replay rows against the committed
	// pre-linking single-core rows (see the constants above).
	BaselinePPS float64 `json:"baseline_pps,omitempty"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`
}

// FirewallVisit builds the steady-state stateful-firewall visit: the
// switch owning the firewall's state, warmed with the flow's entry, and
// an inside→outside packet whose visit re-writes that entry and assigns
// the egress — the per-packet work of §5's compiled plane with zero
// suspends. Used by HotPath, BenchmarkSwitchRun and the zero-allocation
// regression test.
func FirewallVisit() (*netasm.Switch, netasm.SimPacket, error) {
	t := topo.Campus(1000)
	tm := traffic.Gravity(t, 100, 1)
	fw, ok := apps.ByName("stateful-firewall")
	if !ok {
		return nil, netasm.SimPacket{}, fmt.Errorf("stateful-firewall app missing")
	}
	policy := syntax.Then(
		apps.Assumption(6),
		syntax.Then(fw.MustPolicy(), apps.AssignEgress(6)),
	)
	comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return nil, netasm.SimPacket{}, err
	}
	cfg := comp.Config
	owner, ok := cfg.Placement["established"]
	if !ok {
		return nil, netasm.SimPacket{}, fmt.Errorf("no placement for established")
	}
	sc := cfg.Switches[owner]
	sw := netasm.NewLinkedSwitch(int(owner), netasm.Link(sc.Prog, cfg.VarSpace(), sc.Owns))

	p := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(6),
		pkt.SrcIP:   values.IPv4(10, 0, 6, 1),
		pkt.DstIP:   values.IPv4(10, 0, 2, 9),
		pkt.SrcPort: values.Int(4242),
		pkt.DstPort: values.Int(80),
	})
	sp := netasm.SimPacket{
		Pkt: p,
		Hdr: netasm.Header{
			OBSIn:  6,
			OBSOut: -1,
			Node:   cfg.RootID,
			Seq:    -1,
			Phase:  netasm.PhaseEval,
		},
	}
	// Warm the flow entry so the measured visit overwrites in place (the
	// steady state) instead of inserting.
	if _, err := sw.Run(sp); err != nil {
		return nil, netasm.SimPacket{}, err
	}
	return sw, sp, nil
}

// replayHot replays the campus monitor matrix through a single-core
// engine, measuring wall time and per-packet allocation.
func replayHot(sharded bool, s Scale) (HotPathRow, error) {
	name := "replay/unsharded"
	baseline := float64(baselinePPSUnsharded)
	if sharded {
		name = "replay/sharded"
		baseline = float64(baselinePPSSharded)
	}
	t := topo.Campus(s.Capacity)
	tm := traffic.Gravity(t, s.Traffic, 1)
	n := 4000
	if s.Name == "full" {
		n = 40000
	}
	batch := ReplayIngress(tm.Replay(n, 7))
	policy, err := MonitorWorkload(sharded, 6)
	if err != nil {
		return HotPathRow{}, err
	}
	comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return HotPathRow{}, err
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1, Window: 256})
	defer eng.Close()
	// Warm one pass so steady-state entries exist and pools are primed,
	// then measure the second pass.
	if err := eng.InjectReplay(batch); err != nil {
		return HotPathRow{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := eng.InjectReplay(batch); err != nil {
		return HotPathRow{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	pps := float64(n) / elapsed.Seconds()
	return HotPathRow{
		Case:        name,
		Packets:     n,
		PPS:         pps,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		BaselinePPS: baseline,
		Speedup:     pps / baseline,
	}, nil
}

// HotPath measures the compiled fast path: single-core matrix replays
// (against the committed pre-linking baseline) and the bare steady-state
// firewall visit.
func HotPath(s Scale) ([]HotPathRow, error) {
	var rows []HotPathRow
	for _, sharded := range []bool{false, true} {
		row, err := replayHot(sharded, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	sw, sp, err := FirewallVisit()
	if err != nil {
		return nil, err
	}
	var scratch []netasm.Result
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := sw.RunAppend(scratch[:0], sp)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			scratch = rs
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	rows = append(rows, HotPathRow{
		Case:        "visit/firewall-owner",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
		BytesPerOp:  float64(res.AllocedBytesPerOp()),
	})
	return rows, nil
}

// FormatHotPath renders the rows.
func FormatHotPath(rows []HotPathRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s %12s %10s %11s %12s %9s\n",
		"Case", "Packets", "PPS", "ns/op", "allocs/op", "baselinePPS", "speedup")
	for _, r := range rows {
		speedup := ""
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%8.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "%-22s %9d %12.0f %10.0f %11.2f %12.0f %9s\n",
			r.Case, r.Packets, r.PPS, r.NsPerOp, r.AllocsPerOp, r.BaselinePPS, speedup)
	}
	b.WriteString("baselinePPS: committed single-core (workers=1) throughput of the pre-linking engine (PR 2 BENCH.json)\n")
	return b.String()
}
