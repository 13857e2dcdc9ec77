package dataplane_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

// campusWorkload is the standard test composition: assumption; (inner;
// assign-egress) on the Figure 2 campus.
func campusWorkload(inner syntax.Policy) syntax.Policy {
	return syntax.Then(
		apps.Assumption(6),
		syntax.Then(inner, apps.AssignEgress(6)),
	)
}

func deliveryKey(d dataplane.Delivery) string {
	return fmt.Sprintf("%d|%s", d.Port, d.Packet.Key())
}

// TestEngineSequentialEquivalence: a batch through the concurrent engine
// must produce, per injection, the deliveries the semantics prescribes for
// that packet, and the semantics' final global state under any execution
// order; its counters must match a single-worker run of the same batch.
// The workload is chosen commutative — a per-ingress counter plus a
// monotone seen-flag — with forwarding independent of state, so the
// per-injection results are order-independent and the comparison is exact.
func TestEngineSequentialEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	seenWriter := syntax.Cond(
		syntax.FieldEq(pkt.SrcPort, values.Int(53)),
		syntax.WriteState("seen",
			syntax.Vec(syntax.F(pkt.DstIP), syntax.F(pkt.DNSRData)),
			syntax.V(values.Bool(true))),
		syntax.Id(),
	)
	p := campusWorkload(syntax.Par(seenWriter, apps.Monitor()))
	cfg := deploy(t, p, netw, nil)

	rng := rand.New(rand.NewSource(11))
	batch := make([]dataplane.Ingress, 0, 300)
	for i := 0; i < 300; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}

	// The specification, packet by packet in batch order.
	want := make([]map[string]bool, len(batch))
	ref := state.NewStore()
	for i, ing := range batch {
		want[i], ref = specStep(t, p, ref, ing.Packet, netw)
	}
	// The counter reference: one worker, the same batch.
	seqEng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1, Window: 64})
	defer seqEng.Close()
	if _, err := seqEng.InjectBatch(batch); err != nil {
		t.Fatalf("single-worker InjectBatch: %v", err)
	}
	seq := seqEng.Stats()

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := dataplane.NewEngine(cfg, dataplane.Options{
				Workers: workers,
				Window:  64,
			})
			defer eng.Close()
			got, err := eng.InjectBatch(batch)
			if err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for i := range batch {
				checkDeliveries(t, fmt.Sprintf("injection %d", i), got[i], want[i])
			}
			if !eng.GlobalState().Equal(ref) {
				t.Fatalf("final state diverges from the semantics\nengine:\n%s\nsemantics:\n%s",
					eng.GlobalState(), ref)
			}
			st := eng.Stats()
			if st.Injected != int64(len(batch)) {
				t.Fatalf("stats.Injected = %d, want %d", st.Injected, len(batch))
			}
			if st.Delivered != seq.Delivered || st.Dropped != seq.Dropped || st.Suspends != seq.Suspends {
				t.Fatalf("stats diverge: engine %+v vs single-worker %+v", st, seq)
			}
		})
	}
}

// TestEngineBatchOfOneExactEquivalence: with batches of size 1 the engine
// is lockstep-equivalent to the semantics for *any* policy, including
// ones whose forwarding depends on state order (the stateful firewall).
func TestEngineBatchOfOneExactEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	fw, _ := apps.ByName("stateful-firewall")
	p := campusWorkload(fw.MustPolicy())
	eng := dataplane.NewEngine(deploy(t, p, netw, nil), dataplane.Options{})
	defer eng.Close()

	ref := state.NewStore()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		want, next := specStep(t, p, ref, pk, netw)
		ref = next
		checkDeliveries(t, fmt.Sprintf("packet %d", i), injectOne(t, eng, port, pk), want)
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: engine state diverges from semantics", i)
		}
	}
}

// TestEngineShardedStateEquivalence is the shard × engine property test: a
// sharded program executed concurrently delivers, per injection, what the
// semantics of the unsharded program prescribes, and leaves, after
// shard.Merge, the unsharded program's final store — over several random
// traces (the updates are per-ingress counters, so shards are disjoint and
// updates commute).
func TestEngineShardedStateEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	plan := shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6})
	shardedInner, err := shard.Apply(apps.Monitor(), plan)
	if err != nil {
		t.Fatalf("shard.Apply: %v", err)
	}
	unsharded := campusWorkload(apps.Monitor())
	shardCfg := deploy(t, campusWorkload(shardedInner), netw, nil)

	for _, seed := range []int64{1, 7, 23, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			batch := make([]dataplane.Ingress, 0, 250)
			for i := 0; i < 250; i++ {
				port, pk := campusPacket(rng)
				batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
			}

			// Unsharded specification (fresh store per seed).
			want := make([]map[string]bool, len(batch))
			ref := state.NewStore()
			for i, ing := range batch {
				want[i], ref = specStep(t, unsharded, ref, ing.Packet, netw)
			}

			eng := dataplane.NewEngine(shardCfg, dataplane.Options{
				Window: 32,
			})
			defer eng.Close()
			got, err := eng.InjectBatch(batch)
			if err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for i := range batch {
				checkDeliveries(t, fmt.Sprintf("injection %d", i), got[i], want[i])
			}
			merged, err := shard.Merge(eng.GlobalState(), plan, nil)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if !merged.Equal(ref) {
				t.Fatalf("sharded concurrent state != unsharded semantics state\nmerged:\n%s\nref:\n%s",
					merged, ref)
			}
		})
	}
}

// TestEngineStreamAndLoad: InjectStream drains a replayed trace and the
// per-switch load accounting adds up to the global counters.
func TestEngineStreamAndLoad(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	cfg := deploy(t, p, netw, nil)

	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	const n = 500
	ch := make(chan dataplane.Ingress)
	go func() {
		defer close(ch)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			port, pk := campusPacket(rng)
			ch <- dataplane.Ingress{Port: port, Packet: pk}
		}
	}()
	if err := eng.InjectStream(ch); err != nil {
		t.Fatalf("InjectStream: %v", err)
	}
	st := eng.Stats()
	if st.Injected != n {
		t.Fatalf("Injected = %d, want %d", st.Injected, n)
	}
	if st.Delivered == 0 {
		t.Fatal("no deliveries recorded")
	}
	var processed, suspends, forwarded int64
	for _, l := range eng.Load() {
		processed += l.Processed
		suspends += l.Suspends
		forwarded += l.Forwarded
	}
	if processed == 0 || processed < st.Injected {
		t.Fatalf("processed = %d, want >= injected %d", processed, st.Injected)
	}
	if suspends != st.Suspends {
		t.Fatalf("per-switch suspends %d != global %d", suspends, st.Suspends)
	}
	if forwarded != st.Hops {
		t.Fatalf("per-switch forwarded %d != global hops %d", forwarded, st.Hops)
	}
}

// countSum adds up every binding of the count* variables in a store.
func countSum(st *state.Store) int64 {
	var n int64
	for _, v := range st.Vars() {
		if v != "count" && !strings.HasPrefix(v, "count@") {
			continue
		}
		for _, e := range st.Entries(v) {
			n += e.Val.AsInt()
		}
	}
	return n
}

// TestEngineBadPortDoesNotPoison: an unknown ingress port mid-stream is a
// caller input error. The stream reports it, but the engine must stay
// usable — the old behavior routed it through fail(), permanently
// poisoning every later batch.
func TestEngineBadPortDoesNotPoison(t *testing.T) {
	netw := topo.Campus(1000)
	cfg := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(cfg, dataplane.Options{Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(3))
	trace := make([]dataplane.Ingress, 0, 21)
	for i := 0; i < 20; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, dataplane.Ingress{Port: port, Packet: pk})
	}
	trace = append(trace, dataplane.Ingress{Port: 9999, Packet: pkt.New(map[pkt.Field]values.Value{})})

	if err := eng.InjectReplay(trace); err == nil {
		t.Fatal("expected unknown-port error from InjectReplay")
	}
	if got := countSum(eng.GlobalState()); got != 20 {
		t.Fatalf("pre-error packets: counted %d, want 20", got)
	}

	// The engine must accept new work after the input error.
	batch := make([]dataplane.Ingress, 0, 10)
	for i := 0; i < 10; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("InjectBatch after bad-port stream: %v", err)
	}
	if got := countSum(eng.GlobalState()); got != 30 {
		t.Fatalf("after recovery batch: counted %d, want 30", got)
	}
	ch := make(chan dataplane.Ingress, 1)
	close(ch)
	if err := eng.InjectStream(ch); err != nil {
		t.Fatalf("InjectStream after bad-port stream: %v", err)
	}
}

// TestEngineFallbackSendClose: a fork-heavy multicast plane on a pool of
// four workers. Every multicast extra joins its worker's local queue, so
// each injection retires exactly once with both copies delivered, and
// Close stops the pool cleanly afterwards — run under -race.
func TestEngineFallbackSendClose(t *testing.T) {
	netw := topo.Campus(1000)
	// Every packet forks: one copy to port 5, one to port 6.
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Par(
			syntax.Assign(pkt.Outport, values.Int(5)),
			syntax.Assign(pkt.Outport, values.Int(6)),
		),
	)
	eng := dataplane.NewEngine(deploy(t, p, netw, nil), dataplane.Options{
		Workers: 4,
		Window:  64,
	})

	rng := rand.New(rand.NewSource(9))
	trace := make([]dataplane.Ingress, 0, 400)
	for i := 0; i < 400; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, dataplane.Ingress{Port: port, Packet: pk})
	}
	if err := eng.InjectReplay(trace); err != nil {
		t.Fatalf("InjectReplay: %v", err)
	}
	st := eng.Stats()
	if st.Delivered != 2*int64(len(trace)) {
		t.Fatalf("delivered %d copies, want %d", st.Delivered, 2*len(trace))
	}
	// A regression here panics (send on closed channel) or hangs.
	eng.Close()
}

// TestEngineSnapshotsMidStream: GlobalState/SwitchTable/Load taken while
// traffic is in flight must not race with the VM state writes (the gate
// drains in-flight copies first). Run under -race.
func TestEngineSnapshotsMidStream(t *testing.T) {
	netw := topo.Campus(1000)
	cfg := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(21))
	trace := make([]dataplane.Ingress, 0, 2000)
	for i := 0; i < 2000; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, dataplane.Ingress{Port: port, Packet: pk})
	}
	done := make(chan error, 1)
	go func() { done <- eng.InjectReplay(trace) }()

	owner := cfg.Placement["count"]
	var last int64
	for i := 0; i < 40; i++ {
		st := eng.GlobalState()
		if n := countSum(st); n < last {
			t.Errorf("snapshot %d: count sum went backwards (%d -> %d)", i, last, n)
		} else {
			last = n
		}
		eng.SwitchTable(owner)
		eng.Load()
	}
	if err := <-done; err != nil {
		t.Fatalf("InjectReplay: %v", err)
	}
	if n := countSum(eng.GlobalState()); n != int64(len(trace)) {
		t.Fatalf("final count sum %d, want %d", n, len(trace))
	}
}

// TestEngineApplyConfigMigratesState: a hot swap onto a configuration with
// a different owner for the state variable must carry every entry to the
// new owner switch, leave the global view unchanged, and keep serving
// traffic that accumulates on the migrated entries.
func TestEngineApplyConfigMigratesState(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	from, to := topo.NodeID(8), topo.NodeID(2)
	cfgA := deploy(t, p, netw, map[string]topo.NodeID{"count": from})
	cfgB := deploy(t, p, netw, map[string]topo.NodeID{"count": to})

	eng := dataplane.NewEngine(cfgA, dataplane.Options{Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(31))
	batch := make([]dataplane.Ingress, 0, 200)
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	before := eng.GlobalState()
	if len(eng.SwitchTable(from).Entries("count")) == 0 {
		t.Fatal("expected count entries at the original owner")
	}

	if err := eng.ApplyConfig(cfgB, nil); err != nil {
		t.Fatalf("ApplyConfig: %v", err)
	}
	if e := eng.Epoch(); e != 1 {
		t.Fatalf("Epoch = %d, want 1", e)
	}
	if !eng.GlobalState().Equal(before) {
		t.Fatalf("global state changed across swap:\nbefore:\n%s\nafter:\n%s", before, eng.GlobalState())
	}
	if n := len(eng.SwitchTable(to).Entries("count")); n == 0 {
		t.Fatal("count entries did not arrive at the new owner")
	}
	if n := len(eng.SwitchTable(from).Entries("count")); n != 0 {
		t.Fatalf("old owner still holds %d count entries", n)
	}

	// Traffic after the swap keeps accumulating on the migrated entries.
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("post-swap batch: %v", err)
	}
	if n := countSum(eng.GlobalState()); n != 2*int64(len(batch)) {
		t.Fatalf("count sum after swap %d, want %d", n, 2*len(batch))
	}
}

// TestEngineApplyConfigMidStream: ApplyConfig issued while an InjectStream
// is feeding must swap between packets — the stream continues across the
// epoch, no packet or state entry is lost.
func TestEngineApplyConfigMidStream(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	cfgA := deploy(t, p, netw, map[string]topo.NodeID{"count": 8})
	cfgB := deploy(t, p, netw, map[string]topo.NodeID{"count": 2})

	eng := dataplane.NewEngine(cfgA, dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	const n = 1500
	ch := make(chan dataplane.Ingress)
	done := make(chan error, 1)
	go func() { done <- eng.InjectStream(ch) }()

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		port, pk := campusPacket(rng)
		ch <- dataplane.Ingress{Port: port, Packet: pk}
		switch i {
		case 500:
			if err := eng.ApplyConfig(cfgB, nil); err != nil {
				t.Errorf("ApplyConfig #1: %v", err)
			}
		case 1000:
			if err := eng.ApplyConfig(cfgA, nil); err != nil {
				t.Errorf("ApplyConfig #2: %v", err)
			}
		}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("InjectStream: %v", err)
	}
	if e := eng.Epoch(); e != 2 {
		t.Fatalf("Epoch = %d, want 2", e)
	}
	st := eng.Stats()
	if st.Injected != n {
		t.Fatalf("Injected = %d, want %d", st.Injected, n)
	}
	if lost := st.Injected - st.Delivered - st.Dropped; lost != 0 {
		t.Fatalf("%d packets lost across swaps", lost)
	}
	if got := countSum(eng.GlobalState()); got != n {
		t.Fatalf("count sum %d, want %d", got, n)
	}
}

// TestApplyConfigAllocsIndependentOfState: an epoch swap hands each dense
// state table to its new owner instead of copying it entry by entry, so
// the swap allocates about as much on an engine holding thousands of
// entries as on an empty one.
func TestApplyConfigAllocsIndependentOfState(t *testing.T) {
	netw := topo.Campus(1000)
	cfg := deploy(t, campusWorkload(apps.DNSTunnelDetect()), netw, nil)
	empty := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1})
	defer empty.Close()
	full := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1})
	defer full.Close()

	// DNS responses into 10.0.6.0/24, each (client, rdata) pair distinct:
	// one orphan entry per packet plus a counter per client.
	batch := make([]dataplane.Ingress, 0, 2000)
	for i := 0; i < cap(batch); i++ {
		port := 1 + i%5
		host := byte(1 + i%250)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pkt.New(map[pkt.Field]values.Value{
			pkt.Inport:   values.Int(int64(port)),
			pkt.SrcIP:    values.IPv4(10, 0, byte(port), host),
			pkt.DstIP:    values.IPv4(10, 0, 6, host),
			pkt.SrcPort:  values.Int(53),
			pkt.DstPort:  values.Int(1234),
			pkt.DNSRData: values.IPv4(10, 0, byte(1+i/250), byte(1+(i*7)%250)),
		})})
	}
	if _, err := full.InjectBatch(batch); err != nil {
		t.Fatal(err)
	}
	before := full.GlobalState()
	entries := 0
	for _, v := range before.Vars() {
		entries += len(before.Entries(v))
	}
	if entries < 2000 {
		t.Fatalf("warm engine holds %d entries, want >= 2000", entries)
	}

	swapAllocs := func(eng *dataplane.Engine) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := eng.ApplyConfig(cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, got := swapAllocs(empty), swapAllocs(full)
	t.Logf("allocs per swap: %.0f with %d entries, %.0f empty", got, entries, base)
	if !full.GlobalState().Equal(before) {
		t.Fatal("state changed across same-configuration swaps")
	}
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; allocation bound skipped")
	}
	if got > base+200 {
		t.Fatalf("swap of %d entries allocates %.0f times, empty-state swap %.0f: allocations grow with state", entries, got, base)
	}
}

// TestEngineUnknownPort: injecting at a nonexistent port errors cleanly.
func TestEngineUnknownPort(t *testing.T) {
	netw := topo.Campus(1000)
	cfg := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(cfg, dataplane.Options{})
	defer eng.Close()
	if _, err := eng.InjectBatch([]dataplane.Ingress{{Port: 9999, Packet: pkt.New(map[pkt.Field]values.Value{})}}); err == nil {
		t.Fatal("expected error for unknown ingress port")
	}
}
