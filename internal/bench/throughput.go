// Data-plane throughput: how many packets per second the concurrent
// engine serves on the campus network, swept over worker counts and with
// sharding on/off. This is the evaluation's runtime counterpart to the
// compile-time tables: the paper argues (§7.3, Appendix C) that sharding a
// variable like count[inport] lets the optimizer distribute its state, and
// State-Compute Replication-style systems show that such per-shard
// disjointness is what unlocks parallel stateful processing — here the
// sharded workload scales with workers while the unsharded one serializes
// on the single owning switch.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/shard"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// ThroughputRow is one (sharded?, workers) cell of the throughput sweep.
// GOMAXPROCS is recorded because the worker sweep only measures real
// parallelism when the host grants the engine that many cores: on a
// single-core machine all worker counts share one CPU and the speedup
// column degenerates to scheduling-overhead differences.
type ThroughputRow struct {
	Sharded    bool          `json:"sharded"`
	Workers    int           `json:"workers"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Packets    int           `json:"packets"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	PPS        float64       `json:"pps"`
	Speedup    float64       `json:"speedup_vs_1"` // vs the 1-worker row of the same shardedness
	Suspends   int64         `json:"suspends"`
	Hops       int64         `json:"hops"`
	Delivered  int64         `json:"delivered"`
}

// ThroughputWorkers is the worker sweep: sequential baseline, the paper
// acceptance point (4), and everything the host offers.
func ThroughputWorkers() []int {
	ws := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		ws = append(ws, p)
	}
	return ws
}

// MonitorWorkload builds the throughput policy on n ports: assumption;
// (count[inport]++; assign-egress), optionally sharded per ingress port
// (Appendix C), and the port-pair trace replayed against it.
func MonitorWorkload(sharded bool, ports int) (syntax.Policy, error) {
	inner := apps.Monitor()
	if sharded {
		ps := make([]int, ports)
		for i := range ps {
			ps[i] = i + 1
		}
		var err error
		inner, err = shard.Apply(inner, shard.PortsPlan("count", ps))
		if err != nil {
			return nil, err
		}
	}
	return syntax.Then(
		apps.Assumption(ports),
		syntax.Then(inner, apps.AssignEgress(ports)),
	), nil
}

// ReplayIngress turns a traffic-matrix trace over the campus ports into
// concrete packets honoring the assumption policy (srcip in the ingress
// subnet) and addressed so assign-egress forwards to the pair's egress.
func ReplayIngress(pairs [][2]int) []dataplane.Ingress {
	out := make([]dataplane.Ingress, len(pairs))
	for i, uv := range pairs {
		u, v := uv[0], uv[1]
		out[i] = dataplane.Ingress{
			Port: u,
			Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport:  values.Int(int64(u)),
				pkt.SrcIP:   values.IPv4(10, 0, byte(u), byte(1+i%200)),
				pkt.DstIP:   values.IPv4(10, 0, byte(v), byte(1+i%200)),
				pkt.SrcPort: values.Int(int64(1024 + i%1000)),
				pkt.DstPort: values.Int(80),
			}),
		}
	}
	return out
}

// Throughput runs the sweep at the host's GOMAXPROCS: for sharding
// off/on, replay the same gravity-model trace through engines with 1, 4
// and GOMAXPROCS workers and report packets/sec. Scale picks the trace
// length.
func Throughput(s Scale) ([]ThroughputRow, error) {
	return ThroughputCPUs(s, 0)
}

// ThroughputCPUs is the sweep with the core count made explicit: each
// (sharded, workers) cell is measured twice, pinned to GOMAXPROCS=1 and to
// GOMAXPROCS=cpus (0 means the host default), so the report always carries
// a core-starved baseline next to the parallel rows — on a multi-core host
// the pair separates engine scaling from scheduler luck, on a single-core
// host the two collapse and say so. GOMAXPROCS is restored on return.
func ThroughputCPUs(s Scale, cpus int) ([]ThroughputRow, error) {
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	cpuList := []int{1}
	if cpus != 1 {
		cpuList = append(cpuList, cpus)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	t := topo.Campus(s.Capacity)
	tm := traffic.Gravity(t, s.Traffic, 1)
	n := 4000
	if s.Name == "full" {
		n = 40000
	}
	batch := ReplayIngress(tm.Replay(n, 7))

	var rows []ThroughputRow
	for _, sharded := range []bool{false, true} {
		policy, err := MonitorWorkload(sharded, 6)
		if err != nil {
			return nil, err
		}
		comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
		if err != nil {
			return nil, err
		}
		for _, cpu := range cpuList {
			runtime.GOMAXPROCS(cpu)
			var base float64
			for _, w := range ThroughputWorkers() {
				eng := dataplane.NewEngine(comp.Config, dataplane.Options{
					Workers: w,
					Window:  256,
				})
				start := time.Now()
				err := eng.InjectReplay(batch)
				elapsed := time.Since(start)
				st := eng.Stats()
				eng.Close()
				if err != nil {
					return nil, fmt.Errorf("throughput sharded=%v workers=%d: %w", sharded, w, err)
				}
				pps := float64(n) / elapsed.Seconds()
				if w == 1 {
					base = pps
				}
				rows = append(rows, ThroughputRow{
					Sharded:    sharded,
					Workers:    w,
					GOMAXPROCS: cpu,
					Packets:    n,
					Elapsed:    elapsed,
					PPS:        pps,
					Speedup:    pps / base,
					Suspends:   st.Suspends,
					Hops:       st.Hops,
					Delivered:  st.Delivered,
				})
			}
		}
	}
	return rows, nil
}

// FormatThroughput renders the sweep.
func FormatThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %11s %8s %9s %12s %10s %9s %9s\n",
		"Sharded", "GOMAXPROCS", "Workers", "Packets", "PPS", "Speedup", "Suspends", "Hops")
	maxProcs := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v %11d %8d %9d %12.0f %9.2fx %9d %9d\n",
			r.Sharded, r.GOMAXPROCS, r.Workers, r.Packets, r.PPS, r.Speedup, r.Suspends, r.Hops)
		if r.GOMAXPROCS > maxProcs {
			maxProcs = r.GOMAXPROCS
		}
	}
	if len(rows) > 0 && maxProcs < 4 {
		fmt.Fprintf(&b, "note: GOMAXPROCS=%d — the worker sweep needs >=4 cores to measure parallel speedup\n",
			maxProcs)
	}
	return b.String()
}
