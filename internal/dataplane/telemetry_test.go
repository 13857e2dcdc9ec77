package dataplane_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"snap/internal/dataplane"
	"snap/internal/topo"
)

// TestEngineTelemetrySeries: after real traffic one scrape of the engine's
// registry exposes the whole dashboard — packet outcomes agreeing with
// Stats, per-switch load, the lock-wait histogram, and the replication
// gauges — without any instrumentation calls from the test.
func TestEngineTelemetrySeries(t *testing.T) {
	comp, _, tm := compileCampus(t, 2)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 2000, 3)); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()

	var buf bytes.Buffer
	if err := eng.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`snap_packets_total{outcome="delivered"}`,
		`snap_packets_total{outcome="dropped"}`,
		"snap_hops_total",
		"snap_suspends_total",
		"# TYPE snap_lock_wait_seconds histogram",
		"# TYPE snap_link_seconds histogram",
		`snap_replica_lag{kind="mirror"}`,
		`snap_mirror_writes_total{stage="applied"}`,
		"snap_mirror_queue_depth",
		"snap_switch_load_total",
		"snap_epoch 0",
		"snap_down_switches 0",
		"snap_go_goroutines",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape is missing %s", series)
		}
	}

	// The counters are scrape-time views over the engine's own atomics, so
	// they must agree with Stats exactly at quiescence.
	st := eng.Stats()
	for _, want := range []string{
		fmt.Sprintf(`snap_packets_total{outcome="delivered"} %d`, st.Delivered),
		fmt.Sprintf(`snap_packets_total{outcome="dropped"} %d`, st.Dropped),
		fmt.Sprintf("snap_hops_total %d", st.Hops),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape disagrees with Stats: missing %q", want)
		}
	}
}

// TestEngineTraceSampling: with 1-in-N sampling on, exactly every Nth
// injection leaves a finished hop-by-hop record in the trace ring, each
// ending in a terminal outcome with a measured latency. Default engines
// (sampling off) keep a nil sampler, so the ring stays absent.
func TestEngineTraceSampling(t *testing.T) {
	comp, _, tm := compileCampus(t, 1)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, TraceSampling: 10})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 1000, 7)); err != nil {
		t.Fatal(err)
	}

	recs := eng.Telemetry().Snapshot().Traces
	if len(recs) != 100 {
		t.Fatalf("sampled %d traces from 1000 injections at 1-in-10, want 100", len(recs))
	}
	for _, r := range recs {
		if len(r.Hops) == 0 {
			t.Fatalf("trace seq=%d has no hops", r.Seq)
		}
		last := r.Hops[len(r.Hops)-1].Outcome
		if last != "deliver" && last != "drop" {
			t.Fatalf("trace seq=%d ends in %q, want a terminal outcome", r.Seq, last)
		}
		if r.Latency <= 0 {
			t.Fatalf("trace seq=%d has latency %v", r.Seq, r.Latency)
		}
	}

	off := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer off.Close()
	if err := off.InjectReplay(trace(tm, 100, 7)); err != nil {
		t.Fatal(err)
	}
	if got := off.Telemetry().Snapshot().Traces; len(got) != 0 {
		t.Fatalf("sampling off, yet %d traces recorded", len(got))
	}
}

// TestEngineCloseNoGoroutineLeak: a single-worker unreplicated engine
// starts no goroutine at all, and every engine lifecycle — locks,
// state-compute replication, mirror replication, and a mid-life failover —
// winds all its goroutines (the worker pool, the mirror drainer) down on
// Close, and Close is idempotent.
func TestEngineCloseNoGoroutineLeak(t *testing.T) {
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			if m := runtime.NumGoroutine(); m >= n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	base := settle()

	// One worker, no mirror replicas: the caller is the worker.
	{
		comp, _, tm := compileCampus(t, 1)
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("single-worker NewEngine started goroutines: %d before, %d after", base, n)
		}
		if err := eng.InjectReplay(trace(tm, 500, 5)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("single-worker replay left goroutines: %d before, %d after", base, n)
		}
		eng.Close()
	}

	// Locks discipline.
	{
		comp, _, tm := compileCampus(t, 1)
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		if err := eng.InjectReplay(trace(tm, 500, 1)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close()
	}

	// State-compute replication discipline (SCR rings + appliers).
	{
		comp, _, tm := compileCampus(t, 1)
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, StateReplication: true})
		if err := eng.InjectReplay(trace(tm, 500, 2)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close()
	}

	// Mirror replication plus a failover: the swap must stop the old
	// plane's helpers, and Close after it must stop the new ones.
	{
		comp, tp, tm := compileCampus(t, 2)
		owner := comp.Config.Placement["count"]
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		if err := eng.InjectReplay(trace(tm, 500, 3)); err != nil {
			t.Fatal(err)
		}
		eng.FlushReplication()
		if err := eng.FailSwitch(owner); err != nil {
			t.Fatal(err)
		}
		degraded, err := tp.Degrade([]topo.NodeID{owner}, nil)
		if err != nil {
			t.Fatal(err)
		}
		comp2, err := comp.TopoFailover(degraded, tm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Failover(comp2.Config, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.InjectReplay(trace(tm.Restrict(degraded), 500, 4)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across engine lifecycles: %d before, %d after\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestEngineInjectSteadyStateAllocs: with telemetry registered and
// sampling off (the defaults), the warmed packet loop must not allocate
// per packet under either discipline, whether the caller runs the walk
// (one worker) or hands it to the pool, with or without K=2 backups — the
// registry reads the hot path's atomics at scrape time instead of
// interposing on it, an injection handed to the pool travels by value,
// and the double-buffered mirror queues are reused across drains. The
// budget below covers only per-call bookkeeping (the stream closure, wait
// group); one allocation per packet would cost ≥200 and trip it.
func TestEngineInjectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise clean paths")
	}
	for _, tc := range []struct {
		mode     dataplane.ExecMode
		workers  int
		replicas int
	}{
		{dataplane.ModeLocks, 1, 1},
		{dataplane.ModeLocks, 2, 1},
		{dataplane.ModeReplication, 2, 1},
		{dataplane.ModeLocks, 1, 2},
		{dataplane.ModeLocks, 2, 2},
		{dataplane.ModeReplication, 2, 2},
	} {
		name := fmt.Sprintf("%s/workers=%d", tc.mode, tc.workers)
		if tc.replicas > 1 {
			name += fmt.Sprintf("/k=%d", tc.replicas)
		}
		t.Run(name, func(t *testing.T) {
			comp, _, tm := compileCampus(t, tc.replicas)
			eng := dataplane.NewEngine(comp.Config, dataplane.Options{
				Workers:          tc.workers,
				Window:           256,
				StateReplication: tc.mode == dataplane.ModeReplication,
			})
			defer eng.Close()
			if eng.ExecMode() != tc.mode {
				t.Fatalf("exec mode = %v, want %v", eng.ExecMode(), tc.mode)
			}
			tr := trace(tm, 200, 9)
			for i := 0; i < 5; i++ { // insert every state key, size every pool
				if err := eng.InjectReplay(tr); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.InjectReplay(tr); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs per %d-packet replay", allocs, len(tr))
			if allocs > 50 {
				t.Fatalf("steady-state replay of %d packets costs %.0f allocs/run, want per-call bookkeeping only (≤50)", len(tr), allocs)
			}
		})
	}
}
