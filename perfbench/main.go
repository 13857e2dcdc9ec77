// Command perfbench is the repository's benchmark: one run of one
// workload, measured for a fixed wall time, checked for correctness, and
// summarised as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload dns-campus --seed 1 --seconds 10 --trace 0
//
// A run sets up (parse, cold compile, engine build) several times, runs a
// fixed warm-up, then interleaves five operations for --seconds, always
// running the one furthest below its share of the time (workload.go):
// stream-replay chunks, one-packet InjectBatch latency probes, churn
// rounds (a chunk, then a live policy edit through ctrl.ApplyPolicy),
// traffic-matrix changes applied to the engine, and cold compiles. All
// loops are closed: one injector goroutine, the engine's admission window
// in flight during replay. Each edit runs on a controller freshly
// cold-started from the live policy (the Figure 9 policy-change
// scenario), and every compile or reconfiguration is followed by an
// untimed forced GC, so no sample pays for an earlier operation's garbage.
// Every workload runs every operation, so every run reports every
// end-to-end metric:
//
//	setup_s             median time from parse to the first linked plane
//	replay_pps          median packets/s of the replay chunks
//	churn_pps           median packets/s of churn rounds, edit included
//	pkt_latency_p50_us  median latency of the one-packet probes
//	pkt_latency_p99_us  median over 2000-probe windows of each window's p99
//	cold_compile_ms     median core.ColdStart time of the deployed policy,
//	                    timed in the measured loop (setup compiles excluded)
//	policy_change_ms    median ctrl.ApplyPolicy time (recompile, migrate, swap)
//	topo_change_ms      median time to recompile for a new traffic matrix
//	                    and apply it with Engine.ApplyConfig
//	swap_pause_ms       median Engine.ApplyConfig time (admission paused) of
//	                    the edits and the traffic-matrix changes
//	live_heap_mb        heap retained after a forced GC once the warm-up is done
//
// Checks never run inside a timed region; their time is printed as
// check_s, and failed operations as failed_ops_frac (the JSON carries
// attempted and failed). Any failed check makes the run exit 1.
//
// With --trace 1 the run records spans around each layer's public entry
// points and reports the per-layer metrics instead, with both attribution
// residuals and the tracing overhead; the spans are written under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"replay_pps", "1/s"},
	{"churn_pps", "1/s"},
	{"pkt_latency_p50_us", "us"},
	{"pkt_latency_p99_us", "us"},
	{"cold_compile_ms", "ms"},
	{"policy_change_ms", "ms"},
	{"topo_change_ms", "ms"},
	{"swap_pause_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's packages.
var perLayer = []metricDef{
	{"parser.parse_us", "us"},
	{"deps.p1_ms", "ms"},
	{"xfdd.p2_ms", "ms"},
	{"xfdd.nodes", "count"},
	{"psmap.p3_ms", "ms"},
	{"place.p4_model_ms", "ms"},
	{"place.p5_solve_ms", "ms"},
	{"rules.p6_ms", "ms"},
	{"rules.instrs", "count"},
	{"core.residual_ms", "ms"},
	{"core.setup_compile_ms", "ms"},
	{"netasm.link_ms", "ms"},
	{"dataplane.build_ms", "ms"},
	{"ctrl.delta_p1_ms", "ms"},
	{"ctrl.delta_p2_ms", "ms"},
	{"ctrl.delta_p3_ms", "ms"},
	{"ctrl.delta_p5_ms", "ms"},
	{"ctrl.delta_p6_ms", "ms"},
	{"ctrl.delta_residual_ms", "ms"},
	{"xfdd.fresh_nodes", "count"},
	{"xfdd.reused_nodes", "count"},
	{"place.moved_groups", "count"},
	{"rules.dirty_switches", "count"},
	{"rules.reused_programs", "count"},
	{"dataplane.link_reused_frac", "frac"},
	{"ctrl.plan_moves", "count"},
	{"place.p5_te_ms", "ms"},
	{"rules.p6_te_ms", "ms"},
	{"netasm.visit_ns", "ns"},
	{"netasm.visit_allocs", "count"},
	{"netasm.path_visit_ns", "ns"},
	{"netasm.path_visits_per_pkt", "count"},
	{"dataplane.replay_ns_per_pkt", "ns"},
	{"dataplane.visits_per_pkt", "count"},
	{"dataplane.hops_per_pkt", "count"},
	{"dataplane.suspends_per_pkt", "count"},
	{"dataplane.handoff_ns_per_pkt", "ns"},
	{"dataplane.allocs_per_pkt", "count"},
	{"dataplane.bytes_per_pkt", "B"},
	{"dataplane.lock_wait_ns_per_pkt", "ns"},
	{"dataplane.replica_lag", "count"},
	{"state.entries", "count"},
	{"trace.replay_overhead_frac", "frac"},
	{"trace.compile_overhead_frac", "frac"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured wall time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var build func(int64) (*spec, error)
	for _, w := range workloads {
		if w.name == *name {
			build = w.build
		}
	}
	if build == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	sp, err := build(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("shape: workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		sp.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	fmt.Printf("engine: workers=%d replication=%v replicas=%d switches=%d ports=%d\n",
		sp.engine.Workers, sp.engine.StateReplication, max(sp.place.Replicas, 1), sp.topo.Switches, sp.ports)

	r := newRunner(sp, *seed, *trace == 1)
	if err := r.setup(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	heap := r.warmUp()
	r.measure(*seconds)
	if r.traced && !r.broken {
		r.visitProbe()
		r.lsample("state.entries", float64(r.entries()))
	}
	if !r.broken {
		r.finalChecks()
	}
	r.eng.Close()

	var metrics map[string]metricOut
	if r.traced {
		metrics = r.layerMetrics()
	} else {
		metrics = r.e2eMetrics(heap)
	}
	fmt.Printf("ops: attempted=%d failed=%d failed_ops_frac=%.3g check_s=%.3f peak_rss=%s\n",
		r.attempted, r.failed, failFrac(r.failed, r.attempted), r.checkTime.Seconds(), peakRSS())
	for _, p := range r.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	res := result{Correct: r.failed == 0 && !r.broken, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// revision is the source revision run.sh recorded for this build.
func revision() string {
	if rev := os.Getenv("PERFBENCH_REV"); rev != "" {
		return rev
	}
	return "unknown"
}

// peakRSS is the process's peak resident set as the kernel reports it.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.Join(strings.Fields(v), "")
		}
	}
	return "unknown"
}

// e2eMetrics reduces the samples to the end-to-end metrics, failing the
// run when one has no samples.
func (r *runner) e2eMetrics(heap float64) map[string]metricOut {
	lat := r.e2e["latency_us"]
	p50, _ := percentile(lat, 0.5)
	p99, windows := windowP99(lat)
	if windows == 0 {
		r.fail("latency: fewer than %d probes", latencyWindow)
	}
	vals := map[string]float64{
		"pkt_latency_p50_us": p50,
		"pkt_latency_p99_us": p99,
		"live_heap_mb":       heap,
	}
	out := map[string]metricOut{}
	fmt.Println("end-to-end:")
	for _, m := range endToEnd {
		v, ok := vals[m.name]
		n := len(r.e2e[m.name])
		if !ok {
			v = median(r.e2e[m.name])
		} else if m.name != "live_heap_mb" {
			n = len(lat)
		}
		if math.IsNaN(v) || v <= 0 {
			r.fail("metric %s has no measurement", m.name)
			v = 0
		}
		out[m.name] = metricOut{Value: v, Unit: m.unit}
		spread := ""
		if q, ok := quartiles(r.e2e[m.name]); ok && n > 1 && !strings.HasPrefix(m.name, "pkt_") {
			spread = fmt.Sprintf(" iqr=[%.4g, %.4g]", q[0], q[2])
		}
		fmt.Printf("  %-20s %12.4f %-4s n=%d%s\n", m.name, v, m.unit, max(n, 1), spread)
	}
	fmt.Printf("  latency: p99 is the median of %d windows of %d probes\n", windows, latencyWindow)
	if p, v, ok := tailPercentile(lat); ok {
		fmt.Printf("  latency tail over all probes: p%g = %.2f us (n=%d)\n", p*100, v, len(lat))
	}
	return out
}

// layerMetrics reduces the traced run's samples to the per-layer metrics,
// derives both attribution residuals and the tracing overhead, and prints
// the span self-times and the cold vs policy-change phase breakdown.
func (r *runner) layerMetrics() map[string]metricOut {
	med := func(k string) float64 { return median(r.layer[k]) }
	coldPhases := []string{"deps.p1_ms", "xfdd.p2_ms", "psmap.p3_ms", "place.p4_model_ms", "place.p5_solve_ms", "rules.p6_ms"}
	deltaPhases := []string{"ctrl.delta_p1_ms", "ctrl.delta_p2_ms", "ctrl.delta_p3_ms", "", "ctrl.delta_p5_ms", "ctrl.delta_p6_ms"}
	sum := 0.0
	for _, k := range coldPhases {
		sum += med(k)
	}
	cold := median(r.plainCold)
	vals := map[string]float64{
		"core.residual_ms":             cold - sum,
		"dataplane.handoff_ns_per_pkt": med("dataplane.replay_ns_per_pkt") - med("dataplane.visits_per_pkt")*med("netasm.path_visit_ns"),
		"trace.replay_overhead_frac":   median(r.tracedReplay)/median(r.plainReplay) - 1,
		"trace.compile_overhead_frac":  median(r.tracedCold)/median(r.plainCold) - 1,
	}
	out := map[string]metricOut{}
	fmt.Println("per-layer:")
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			v = med(m.name)
		}
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Printf("  %-32s (no samples)\n", m.name)
			v = 0
		case ok:
			fmt.Printf("  %-32s %12.4f %s (derived)\n", m.name, v, m.unit)
		default:
			fmt.Printf("  %-32s %12.4f %s n=%d\n", m.name, v, m.unit, len(r.layer[m.name]))
		}
		out[m.name] = metricOut{Value: v, Unit: m.unit}
	}

	fmt.Println("attribution:")
	fmt.Printf("  replay %.1f ns/pkt = %.3f visits/pkt x %.1f ns/visit + hand-off residual %.1f ns/pkt\n",
		med("dataplane.replay_ns_per_pkt"), med("dataplane.visits_per_pkt"), med("netasm.path_visit_ns"), vals["dataplane.handoff_ns_per_pkt"])
	fmt.Printf("  cold compile %.3f ms = phases %.3f ms + residual %.3f ms\n", cold, sum, vals["core.residual_ms"])
	fmt.Println("  phase        cold_ms   policy_change_ms")
	for i, k := range coldPhases {
		d := 0.0
		if deltaPhases[i] != "" {
			d = med(deltaPhases[i])
		}
		fmt.Printf("  P%d %-9s %9.3f %9.3f\n", i+1, strings.SplitN(k, ".", 2)[0], med(k), d)
	}
	fmt.Printf("  residual     %9.3f %9.3f\n", vals["core.residual_ms"], med("ctrl.delta_residual_ms"))
	fmt.Printf("  total        %9.3f %9.3f (policy change wall %.3f ms incl. swap)\n",
		cold, med("ctrl.delta_p1_ms")+med("ctrl.delta_p2_ms")+med("ctrl.delta_p3_ms")+med("ctrl.delta_p5_ms")+med("ctrl.delta_p6_ms"),
		median(r.e2e["policy_change_ms"]))
	fmt.Printf("tracing overhead: replay %+.2f%% (%d traced / %d plain chunks), cold compile %+.2f%% (%d phased / %d plain)\n",
		100*vals["trace.replay_overhead_frac"], len(r.tracedReplay), len(r.plainReplay),
		100*vals["trace.compile_overhead_frac"], len(r.tracedCold), len(r.plainCold))

	fmt.Println("span self time (top 12):")
	for i, st := range r.tr.selfTimes() {
		if i == 12 {
			break
		}
		fmt.Printf("  %-28s calls=%-6d total=%-12s self=%s\n", st.Name, st.Calls, st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", r.sp.name, r.seed))
	if err := r.tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("spans: %s (%d)\n", path, len(r.tr.spans))
	}
	return out
}
