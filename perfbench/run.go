package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/deps"
	"snap/internal/netasm"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// Minimum samples per op kind, topped up after the measured time when a
// slow machine left an op short. Latency needs five p99 windows.
var minSamples = [numOps]int{opReplay: 10, opLatency: 5 * latencyWindow, opChurn: 5, opTopo: 5, opCompile: 5}

// runner is one benchmark run of one workload.
type runner struct {
	sp     *spec
	seed   int64
	traced bool
	tr     *tracer // nil unless traced

	src    *stream // the measured packet stream
	probes *stream // packets of post-edit delivery probes
	buf    []dataplane.Ingress

	policy0 syntax.Policy // the deployed policy, input of every cold compile
	eng     *dataplane.Engine
	ctl     *ctrl.Controller
	edit    int           // lineage index of the live policy
	policy  syntax.Policy // the live policy
	shadow  *state.Store  // counter workloads: arithmetic shadow of the engine state
	topoK   int

	// injected counts packets this run put into the live engine, and
	// expectDrops those the oracle predicted no delivery for.
	injected, expectDrops int64
	attempted, failed     int64
	problems              []string
	broken                bool // the engine is poisoned; stop the run
	checkTime             time.Duration

	// e2e and layer hold raw samples keyed by metric name.
	e2e   map[string][]float64
	layer map[string][]float64
	// plainReplay and tracedReplay are traced-run per-chunk wall times
	// with and without counter collection, for the tracing overhead.
	plainReplay, tracedReplay []float64
	plainCold, tracedCold     []float64
	compileOps                int
}

func newRunner(sp *spec, seed int64, traced bool) *runner {
	r := &runner{
		sp:     sp,
		seed:   seed,
		traced: traced,
		src:    sp.stream(seed),
		probes: sp.stream(seed ^ 0x9e3779b9),
		e2e:    map[string][]float64{},
		layer:  map[string][]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *runner) sample(name string, v float64) { r.e2e[name] = append(r.e2e[name], v) }
func (r *runner) lsample(name string, v float64) {
	if r.traced {
		r.layer[name] = append(r.layer[name], v)
	}
}

// fail records a failed operation or check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// engineErr records an engine or controller error; engine processing
// errors are sticky, so the run stops.
func (r *runner) engineErr(what string, err error) {
	r.fail("%s: %v", what, err)
	r.broken = true
}

// setup parses, cold-compiles and builds an engine setupReps times; the
// last engine is kept. setup_s is the time to the first linked plane.
func (r *runner) setup() error {
	src := r.sp.policySrc(0)
	var comp *core.Compilation
	for i := 0; i < r.sp.setupReps; i++ {
		root := r.tr.begin("bench.setup", -1)
		t0 := time.Now()
		s := r.tr.begin("parser.Parse", root)
		p, err := parser.Parse(src)
		tParse := time.Since(t0)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		t1 := time.Now()
		s = r.tr.begin("core.ColdStart", root)
		comp, err = core.ColdStart(p, r.sp.topo, r.sp.demands, r.sp.place)
		tComp := time.Since(t1)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("cold start: %w", err)
		}
		t2 := time.Now()
		s = r.tr.begin("dataplane.NewEngine", root)
		eng := dataplane.NewEngine(comp.Config, r.sp.engine)
		tEng := time.Since(t2)
		r.tr.end(s)
		total := time.Since(t0)
		r.tr.end(root)
		r.attempted++
		r.sample("setup_s", total.Seconds())
		r.lsample("core.setup_compile_ms", ms(tComp))
		r.lsample("parser.parse_us", float64(tParse)/1e3)
		r.lsample("dataplane.build_ms", ms(tEng))
		if r.eng != nil {
			r.eng.Close()
		}
		r.eng, r.policy0, r.policy = eng, p, p
		if r.traced && i == 0 {
			r.linkTime(comp.Config)
		}
	}
	r.ctl = ctrl.New(comp, r.eng, ctrl.Options{})
	if !r.sp.dns {
		r.shadow = state.NewStore()
	}
	r.checkMode("setup")
	return nil
}

// linkTime links every distinct program of cfg the way the engine's
// first plane build does, timing netasm.Link alone.
func (r *runner) linkTime(cfg *rules.Config) {
	vs := cfg.VarSpace()
	seen := map[string]bool{}
	root := r.tr.begin("netasm.Link", -1)
	for _, sc := range cfg.Switches {
		k := fmt.Sprintf("%p|%s", sc.Prog, rules.OwnsKey(sc.Owns))
		if seen[k] {
			continue
		}
		seen[k] = true
		netasm.Link(sc.Prog, vs, sc.Owns)
	}
	r.lsample("netasm.link_ms", ms(r.tr.end(root)))
}

// checkMode asserts the engine runs the discipline the workload is
// defined by: no silent fallback from replication, live backups for K=2.
func (r *runner) checkMode(where string) {
	r.attempted++
	if m := r.eng.ExecMode(); m != r.sp.wantMode {
		r.fail("%s: exec mode %s, want %s (fallback: %v)", where, m, r.sp.wantMode, r.eng.ReplicationFallback())
	} else if m == dataplane.ModeReplication && len(r.eng.ReplicationFallback()) > 0 {
		r.fail("%s: replication fallback reported: %v", where, r.eng.ReplicationFallback())
	}
	if r.sp.wantReplicas && len(r.eng.Config().Replicas) == 0 {
		r.fail("%s: configuration carries no backup replicas", where)
	}
}

// next fills the reusable buffer with n packets of the measured stream
// and advances the counter shadow over them.
func (r *runner) next(n int) []dataplane.Ingress {
	if cap(r.buf) < n {
		r.buf = make([]dataplane.Ingress, n)
	}
	b := r.buf[:n]
	r.src.fill(b)
	t0 := time.Now()
	for _, in := range b {
		r.shadowAdd(in.Packet)
	}
	r.checkTime += time.Since(t0)
	return b
}

// shadowAdd applies one packet to the counter shadow under the live
// variant (no-op for the DNS workloads).
func (r *runner) shadowAdd(p pkt.Packet) {
	if r.shadow == nil {
		return
	}
	countApply(r.shadow, r.edit, p)
}

// countApply is the arithmetic model of counter variant v on one packet:
// the rotation's counters, gated as counterInner gates them.
func countApply(st *state.Store, v int, p pkt.Packet) {
	c, f := true, true
	switch dport := p.Field(pkt.DstPort).Num; v % len(counterInner) {
	case 1:
		c = dport == 80
	case 2:
		f = dport == 53
	}
	if c {
		st.Add("count", values.Tuple{p.Field(pkt.Inport)}, 1)
	}
	if f {
		st.Add("flows", values.Tuple{p.Field(pkt.SrcIP)}, 1)
	}
}

// replayChunk injects one chunk in stream mode and returns its wall time.
// Traced, it also collects the data-plane counters around the chunk.
func (r *runner) replayChunk(n int, parent int) (time.Duration, bool) {
	b := r.next(n)
	var st0 dataplane.Stats
	var ld0 map[int]int64
	var a0 [2]uint64
	collect := r.traced && parent >= 0
	var tw time.Time
	if collect {
		tw = time.Now()
		st0, ld0, a0 = r.eng.Stats(), r.visits(), allocs()
	}
	s := r.tr.begin("dataplane.InjectReplay", parent)
	t0 := time.Now()
	err := r.eng.InjectReplay(b)
	d := time.Since(t0)
	r.tr.end(s)
	r.injected += int64(n)
	r.attempted += int64(n)
	if err != nil {
		r.engineErr("replay", err)
		return d, false
	}
	if collect {
		a1 := allocs()
		st1, ld1 := r.eng.Stats(), r.visits()
		lag := r.eng.ReplicaStats().Lag
		r.tracedReplay = append(r.tracedReplay, float64(time.Since(tw)))
		pk := float64(n)
		var visits int64
		for id, v := range ld1 {
			visits += v - ld0[id]
		}
		r.lsample("dataplane.replay_ns_per_pkt", float64(d)/pk)
		r.lsample("dataplane.visits_per_pkt", float64(visits)/pk)
		r.lsample("dataplane.hops_per_pkt", float64(st1.Hops-st0.Hops)/pk)
		r.lsample("dataplane.suspends_per_pkt", float64(st1.Suspends-st0.Suspends)/pk)
		r.lsample("dataplane.lock_wait_ns_per_pkt", float64(st1.LockWaitNs-st0.LockWaitNs)/pk)
		r.lsample("dataplane.allocs_per_pkt", float64(a1[0]-a0[0])/pk)
		r.lsample("dataplane.bytes_per_pkt", float64(a1[1]-a0[1])/pk)
		r.lsample("dataplane.replica_lag", float64(lag))
	}
	r.boundary("replay")
	return d, true
}

// allocs reads the process's cumulative heap allocation count and bytes
// without stopping the world.
func allocs() [2]uint64 {
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(ss)
	return [2]uint64{ss[0].Value.Uint64(), ss[1].Value.Uint64()}
}

// visits sums switch visits per switch (Engine.Load).
func (r *runner) visits() map[int]int64 {
	out := map[int]int64{}
	for id, l := range r.eng.Load() {
		out[int(id)] = l.Processed
	}
	return out
}

// boundary runs the quiescent-point checks: packet conservation, the
// counter shadow, replica convergence and live backups.
func (r *runner) boundary(where string) {
	t0 := time.Now()
	defer func() { r.checkTime += time.Since(t0) }()
	r.attempted++
	st := r.eng.Stats()
	if st.Shed != 0 || st.Injected != r.injected || st.Dropped != r.expectDrops || st.Delivered != r.injected-r.expectDrops {
		r.fail("%s: conservation: injected %d (harness %d), delivered %d, dropped %d (expected %d), shed %d",
			where, st.Injected, r.injected, st.Delivered, st.Dropped, r.expectDrops, st.Shed)
	}
	if r.shadow != nil {
		r.attempted++
		if !r.eng.GlobalState().Equal(r.shadow) {
			r.fail("%s: engine state differs from the counter shadow", where)
		}
	}
	if err := r.eng.AuditReplicas(); err != nil {
		r.fail("%s: replica audit: %v", where, err)
	}
	if r.sp.wantReplicas && r.eng.ReplicaStats().Enqueued == 0 {
		r.fail("%s: no writes mirrored to backup replicas", where)
	}
}

func (r *runner) opReplay(i int) {
	parent := -1
	if r.traced && i%2 == 1 {
		parent = r.tr.begin("bench.replay", -1)
	}
	d, ok := r.replayChunk(r.sp.replayChunk, parent)
	r.tr.end(parent)
	if !ok {
		return
	}
	r.sample("replay_pps", float64(r.sp.replayChunk)/d.Seconds())
	if r.traced && parent < 0 {
		r.plainReplay = append(r.plainReplay, float64(d))
	}
}

func (r *runner) opLatency() {
	for j := 0; j < r.sp.latencyBatch && !r.broken; j++ {
		one := r.next(1)
		s := r.tr.begin("dataplane.InjectBatch", -1)
		t0 := time.Now()
		_, err := r.eng.InjectBatch(one)
		d := time.Since(t0)
		r.tr.end(s)
		r.injected++
		r.attempted++
		if err != nil {
			r.engineErr("latency probe", err)
			return
		}
		r.sample("latency_us", float64(d)/1e3)
	}
	r.boundary("latency")
}

// opChurn streams one chunk, then applies the next policy of the lineage
// through the controller.
func (r *runner) opChurn() {
	defer settle()
	root := r.tr.begin("bench.churn", -1)
	defer r.tr.end(root)
	d, ok := r.replayChunk(r.sp.churnChunk, -1)
	if !ok {
		return
	}
	p, err := parser.Parse(r.sp.policySrc(r.edit + 1))
	if err != nil {
		r.fail("parse edit %d: %v", r.edit+1, err)
		r.broken = true
		return
	}
	if r.edit > 0 {
		r.resetLineage()
	}
	reused0, fresh0 := r.eng.LinkStats()
	s := r.tr.begin("ctrl.ApplyPolicy", root)
	at := time.Now()
	rep, err := r.ctl.ApplyPolicy(p)
	e := time.Since(at)
	r.tr.end(s)
	r.attempted++
	if err != nil {
		r.engineErr("apply policy", err)
		return
	}
	r.edit++
	r.policy = p
	r.sample("churn_pps", float64(r.sp.churnChunk)/(d+e).Seconds())
	r.sample("policy_change_ms", ms(e))
	r.sample("swap_pause_ms", ms(rep.Swap))
	if r.traced {
		t := rep.Times
		phases(r.tr, r.tr.record("core.PolicyChange", s, at, t.Total()), at, t)
		r.tr.record("dataplane.ApplyConfig", s, at.Add(t.Total()), rep.Swap)
		r.lsample("ctrl.delta_p1_ms", ms(t.P1Deps))
		r.lsample("ctrl.delta_p2_ms", ms(t.P2XFDD))
		r.lsample("ctrl.delta_p3_ms", ms(t.P3Map))
		r.lsample("ctrl.delta_p5_ms", ms(t.P5Solve))
		r.lsample("ctrl.delta_p6_ms", ms(t.P6Rules))
		r.lsample("ctrl.delta_residual_ms", ms(e-t.Total()-rep.Swap))
		r.lsample("ctrl.plan_moves", float64(len(rep.Plan.Moves)))
		if dr := rep.Delta; dr != nil {
			r.lsample("xfdd.fresh_nodes", float64(dr.FreshNodes))
			r.lsample("xfdd.reused_nodes", float64(dr.ReusedNodes))
			r.lsample("place.moved_groups", float64(dr.MovedGroups))
			r.lsample("rules.reused_programs", float64(dr.ReusedPrograms))
			r.lsample("rules.dirty_switches", float64(len(dr.DirtySwitches)))
		}
		reused1, fresh1 := r.eng.LinkStats()
		if n := (reused1 - reused0) + (fresh1 - fresh0); n > 0 {
			r.lsample("dataplane.link_reused_frac", float64(reused1-reused0)/float64(n))
		}
	}
	r.checkMode("policy edit")
	r.probe("policy edit")
}

// settle collects the garbage of a compile or reconfiguration before the
// next op runs (untimed). These ops allocate heavily; at IGen-120 the
// collection they leave behind otherwise lands in whichever op follows,
// and doubles some of its samples.
func settle() { runtime.GC() }

// resetLineage replaces the controller with one over a cold start of the
// live policy, so every edit is the first on its lineage: the Figure 9
// policy-change scenario. The delta caches keep every fragment they ever
// compiled (about 80 MB per fresh edit at IGen-120); on one long lineage
// the heap, the GC work every op pays and the edit cost would depend on
// how many edits came before. The live policy is not the deployed one, so
// the cold start is not a cold_compile_ms sample.
func (r *runner) resetLineage() {
	r.attempted++
	comp, err := core.ColdStart(r.policy, r.sp.topo, r.sp.demands, r.sp.place)
	if err != nil {
		r.fail("lineage reset: cold start: %v", err)
		return
	}
	r.ctl = ctrl.New(comp, r.eng, ctrl.Options{})
	settle()
}

// phases lays the reported compile phase times out as child spans.
func phases(tr *tracer, parent int, at time.Time, t core.PhaseTimes) {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"deps.OrderOf", t.P1Deps}, {"xfdd.TranslateMemo", t.P2XFDD}, {"psmap.Build", t.P3Map},
		{"place.NewModel", t.P4Model}, {"place.Solve", t.P5Solve}, {"rules.Generate", t.P6Rules},
	} {
		if ph.d > 0 {
			tr.record(ph.name, parent, at, ph.d)
			at = at.Add(ph.d)
		}
	}
}

// opTopo recompiles the controller's lineage for a new traffic matrix
// (P5-TE, P6) and applies it to the live engine.
func (r *runner) opTopo() {
	defer settle()
	r.topoK++
	m := traffic.Gravity(r.sp.topo, r.sp.demands.Total(), r.seed*1000+int64(r.topoK))
	root := r.tr.begin("bench.topo", -1)
	defer r.tr.end(root)
	t0 := time.Now()
	s := r.tr.begin("core.TopoTMChange", root)
	next, err := r.ctl.Compilation().TopoTMChange(m)
	r.tr.end(s)
	r.attempted++
	if err != nil {
		r.fail("topo change: %v", err)
		return
	}
	s = r.tr.begin("ctrl.PlanMigration", root)
	plan := ctrl.PlanMigration(r.eng.Config(), next.Config, nil, nil)
	r.tr.end(s)
	s = r.tr.begin("dataplane.ApplyConfig", root)
	ta := time.Now()
	err = r.eng.ApplyConfig(next.Config, plan.Rewrite())
	swap := time.Since(ta)
	r.tr.end(s)
	d := time.Since(t0)
	if err != nil {
		r.engineErr("apply traffic-matrix change", err)
		return
	}
	r.sample("topo_change_ms", ms(d))
	r.sample("swap_pause_ms", ms(swap))
	r.lsample("place.p5_te_ms", ms(next.Times.P5Solve))
	r.lsample("rules.p6_te_ms", ms(next.Times.P6Rules))
	r.checkMode("traffic-matrix change")
	r.probe("traffic-matrix change")
}

// opCompile runs one cold compile of the deployed policy. Traced runs
// alternate between core.ColdStart and the same pipeline called phase by
// phase through each layer's public entry point with a span around it.
func (r *runner) opCompile(i int) {
	r.attempted++
	r.compileOps++
	defer settle()
	if r.traced && i%2 == 1 {
		d, err := r.coldPhases()
		if err != nil {
			r.fail("cold compile (phased): %v", err)
			return
		}
		r.tracedCold = append(r.tracedCold, ms(d))
		return
	}
	t0 := time.Now()
	_, err := core.ColdStart(r.policy0, r.sp.topo, r.sp.demands, r.sp.place)
	d := time.Since(t0)
	if err != nil {
		r.fail("cold compile: %v", err)
		return
	}
	r.sample("cold_compile_ms", ms(d))
	if r.traced {
		r.plainCold = append(r.plainCold, ms(d))
	}
}

// coldPhases is core.ColdStart's pipeline, phase by phase.
func (r *runner) coldPhases() (time.Duration, error) {
	p, t := r.policy0, r.sp.topo
	root := r.tr.begin("bench.cold_compile", -1)
	t0 := time.Now()
	s := r.tr.begin("deps.OrderOf", root)
	order := deps.OrderOf(p)
	r.lsample("deps.p1_ms", ms(r.tr.end(s)))
	s = r.tr.begin("xfdd.TranslateMemo", root)
	d, err := xfdd.NewTranslator(order).TranslateMemo(p)
	r.lsample("xfdd.p2_ms", ms(r.tr.end(s)))
	if err != nil {
		return 0, err
	}
	r.lsample("xfdd.nodes", float64(d.Size()))
	s = r.tr.begin("psmap.Build", root)
	mapping := psmap.NewBuilder().Build(d, t.PortIDs())
	r.lsample("psmap.p3_ms", ms(r.tr.end(s)))
	s = r.tr.begin("place.NewModel", root)
	model := place.NewModel(t, r.sp.demands, r.sp.place)
	r.lsample("place.p4_model_ms", ms(r.tr.end(s)))
	s = r.tr.begin("place.SolveST", root)
	res, err := model.SolveST(mapping, order)
	r.lsample("place.p5_solve_ms", ms(r.tr.end(s)))
	if err != nil {
		return 0, err
	}
	s = r.tr.begin("rules.Generate", root)
	cfg, err := rules.NewGenerator().Generate(d, t, res.Placement, res.Replicas, res.Routes)
	r.lsample("rules.p6_ms", ms(r.tr.end(s)))
	if err != nil {
		return 0, err
	}
	instrs := 0
	for _, sc := range cfg.Switches {
		instrs += len(sc.Prog.Instrs)
	}
	r.lsample("rules.instrs", float64(instrs))
	dur := time.Since(t0)
	r.tr.end(root)
	return dur, nil
}

// probe injects a few packets one at a time after a reconfiguration and
// compares each one's deliveries with the semantics' prediction for the
// live policy. The policies' forwarding never depends on state, so the
// prediction is taken on an empty store.
func (r *runner) probe(where string) {
	if r.broken {
		return
	}
	t0 := time.Now()
	defer func() { r.checkTime += time.Since(t0) }()
	ps := make([]dataplane.Ingress, 2, 3)
	r.probes.fill(ps)
	if r.sp.dns && r.edit > 0 {
		ps = append(ps, aclProbe(r.sp.ports, aclPort(r.seed, r.edit)))
	}
	for _, in := range ps {
		want, _, err := predict(r.policy, state.NewStore(), in.Packet)
		r.attempted++
		if err != nil {
			r.fail("%s: oracle: %v", where, err)
			continue
		}
		r.shadowAdd(in.Packet)
		out, err := r.eng.InjectBatch([]dataplane.Ingress{in})
		r.injected++
		if len(want) == 0 {
			r.expectDrops++
		}
		if err != nil {
			r.engineErr(where+": probe", err)
			return
		}
		if !sameDeliveries(out[0], want) {
			r.fail("%s: probe at port %d delivered %d copies, semantics predicts %d", where, in.Port, len(out[0]), len(want))
		}
	}
	r.boundary(where + " probes")
}

// predict evaluates one packet through the one-big-switch semantics and
// returns the predicted delivery keys ("port|packet") and the new store.
func predict(p syntax.Policy, st *state.Store, in pkt.Packet) (map[string]bool, *state.Store, error) {
	res, err := semantics.Eval(p, st, in)
	if err != nil {
		return nil, nil, err
	}
	want := map[string]bool{}
	for _, wp := range res.Packets {
		if out := wp.Field(pkt.Outport); out.Kind == values.KindInt {
			want[fmt.Sprintf("%d|%s", out.Num, wp.Key())] = true
		}
	}
	return want, res.Store, nil
}

func sameDeliveries(got []dataplane.Delivery, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, d := range got {
		if !want[fmt.Sprintf("%d|%s", d.Port, d.Packet.Key())] {
			return false
		}
	}
	return true
}

// warmUp runs a fixed amount of every op before measuring: enough
// packets to fill the state tables, warmEdits edits and as many
// traffic-matrix changes. live_heap_mb is taken after it, so the retained
// heap reflects the same work on every run. Its samples are discarded,
// except those of setup.
func (r *runner) warmUp() float64 {
	keep, keepL := r.e2e, r.layer
	r.e2e, r.layer = map[string][]float64{}, map[string][]float64{}
	for sent := 0; sent < r.sp.warmPackets && !r.broken; sent += r.sp.replayChunk {
		r.opReplay(0)
	}
	for i := 0; i < warmEdits && !r.broken; i++ {
		r.opChurn()
		r.opTopo()
	}
	if !r.broken {
		r.opLatency()
		r.opCompile(0)
	}
	r.e2e, r.layer = keep, keepL
	r.plainReplay, r.tracedReplay, r.plainCold, r.tracedCold = nil, nil, nil, nil
	r.compileOps = 0
	return r.liveHeapMB()
}

// warmEdits is the number of edits and of matrix changes in the warm-up.
const warmEdits = 1

// measure interleaves the op kinds for the given wall time, always
// running the kind furthest below its share, then tops up any kind short
// of its minimum sample count.
func (r *runner) measure(seconds int) {
	var spent [numOps]time.Duration
	var runs [numOps]int
	run := func(k opKind) {
		t0 := time.Now()
		switch k {
		case opReplay:
			r.opReplay(runs[k])
		case opLatency:
			r.opLatency()
		case opChurn:
			r.opChurn()
		case opTopo:
			r.opTopo()
		case opCompile:
			r.opCompile(runs[k])
		}
		runs[k]++
		spent[k] += time.Since(t0)
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) && !r.broken {
		best := opKind(0)
		for k := opKind(1); k < numOps; k++ {
			if float64(spent[k])/r.sp.weights[k] < float64(spent[best])/r.sp.weights[best] {
				best = k
			}
		}
		run(best)
	}
	for k := opKind(0); k < numOps && !r.broken; k++ {
		for r.count(k) < minSamples[k] && !r.broken {
			run(k)
		}
	}
}

// count is the number of samples op kind k has produced.
func (r *runner) count(k opKind) int {
	switch k {
	case opReplay:
		return len(r.e2e["replay_pps"])
	case opLatency:
		return len(r.e2e["latency_us"])
	case opChurn:
		return len(r.e2e["churn_pps"])
	case opTopo:
		return len(r.e2e["topo_change_ms"])
	}
	return r.compileOps
}

// liveHeapMB is the heap retained after forced collections, with the
// engine, controller lineage and state tables live.
func (r *runner) liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// pathProbes is how many recorded packet paths visitProbe re-executes.
const pathProbes = 2000

// visitProbe measures switch visits outside the engine. It replays a
// stream prefix through a fresh one-worker engine running the live
// configuration with every packet's path recorded (telemetry traces), then
// re-executes each recorded path on standalone linked switches, so the
// visits timed (netasm.path_visit_ns) are exactly the engine's visit mix
// without its admission and hand-off. At one worker the state evolves
// identically, so every re-executed visit must end as the engine's did; a
// mismatch fails the run. It also times the steady-state visit of one
// packet on the owner switch of the workload's main state variable
// (netasm.visit_ns), which starts at the diagram root and so costs more
// than the average visit of a packet that suspends on its way.
func (r *runner) visitProbe() {
	cfg := r.eng.Config()
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1, TraceSampling: 1, TraceBuffer: pathProbes})
	src := r.sp.stream(r.seed ^ 0x7a7e)
	pkts := make([]dataplane.Ingress, pathProbes)
	src.fill(pkts)
	for i := range pkts {
		if _, err := eng.InjectBatch(pkts[i : i+1]); err != nil {
			eng.Close()
			r.fail("visit probe: %v", err)
			return
		}
	}
	recs := eng.Telemetry().Traces.Snapshot()
	eng.Close()
	vs := cfg.VarSpace()
	linked := map[topo.NodeID]*netasm.Linked{}
	for id, sc := range cfg.Switches {
		linked[id] = netasm.Link(sc.Prog, vs, sc.Owns)
	}
	// The engine records a ToEgress visit at the egress switch itself as
	// a delivery.
	matches := func(o netasm.Outcome, rec string) bool {
		switch o {
		case netasm.NeedState:
			return rec == "suspend"
		case netasm.ToEgress:
			return rec == "forward" || rec == "deliver"
		case netasm.Delivered:
			return rec == "deliver"
		}
		return rec == "drop"
	}
	var passes []float64
	visits := 0
	for pass := 0; pass < 3; pass++ {
		sws := map[int]*netasm.Switch{}
		for id, lp := range linked {
			sws[int(id)] = netasm.NewLinkedSwitch(int(id), lp)
		}
		visits = 0
		var dst []netasm.Result
		var err error
		s := r.tr.begin("netasm.Switch.Run", -1)
		t0 := time.Now()
		for _, rec := range recs {
			sp := ingressPacket(cfg, pkts[rec.Seq-1])
			for _, h := range rec.Hops {
				if dst, err = sws[h.Switch].RunAppend(dst[:0], sp); err != nil || len(dst) != 1 {
					r.fail("visit probe: packet %d at switch %d: %d results, %v", rec.Seq, h.Switch, len(dst), err)
					r.tr.end(s)
					return
				}
				visits++
				if pass == 0 && !matches(dst[0].Outcome, h.Outcome) {
					r.fail("visit probe: packet %d at switch %d ends with outcome %d standalone, %s in the engine", rec.Seq, h.Switch, dst[0].Outcome, h.Outcome)
				}
				sp = dst[0].Packet
			}
		}
		passes = append(passes, float64(time.Since(t0)))
		r.tr.end(s)
	}
	r.attempted++
	if len(recs) != pathProbes || visits == 0 {
		r.fail("visit probe: %d paths recorded for %d packets", len(recs), pathProbes)
		return
	}
	r.lsample("netasm.path_visit_ns", median(passes)/float64(visits))
	r.lsample("netasm.path_visits_per_pkt", float64(visits)/pathProbes)
	r.ownerVisit(cfg, linked, pkts[0])
}

// ingressPacket is a packet as the engine admits it: evaluation starts at
// the diagram root.
func ingressPacket(cfg *rules.Config, in dataplane.Ingress) netasm.SimPacket {
	return netasm.SimPacket{Pkt: in.Packet, Hdr: netasm.Header{
		OBSIn: in.Port, OBSOut: -1, Node: cfg.RootID, Seq: -1, Phase: netasm.PhaseEval,
	}}
}

// ownerVisit times the steady-state visit of one packet on the owner
// switch of the workload's main state variable, with its allocations.
func (r *runner) ownerVisit(cfg *rules.Config, linked map[topo.NodeID]*netasm.Linked, in dataplane.Ingress) {
	owner, ok := cfg.Placement[r.sp.stateVar]
	if !ok {
		r.fail("visit probe: %s is not placed", r.sp.stateVar)
		return
	}
	sw := netasm.NewLinkedSwitch(int(owner), linked[owner])
	sp := ingressPacket(cfg, in)
	dst, err := sw.RunAppend(nil, sp)
	if err != nil {
		r.fail("visit probe: %v", err)
		return
	}
	const n = 20000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if dst, err = sw.RunAppend(dst[:0], sp); err != nil {
			r.fail("visit probe: %v", err)
			return
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.lsample("netasm.visit_ns", float64(d)/n)
	r.lsample("netasm.visit_allocs", float64(m1.Mallocs-m0.Mallocs)/n)
}

// entries counts the live engine's state entries.
func (r *runner) entries() int {
	st := r.eng.GlobalState()
	n := 0
	for _, v := range st.Vars() {
		n += len(st.Entries(v))
	}
	return n
}
