// Public-API tests: everything a downstream user does goes through the
// facade exercised here.
package snap_test

import (
	"runtime"
	"strings"
	"testing"

	"snap"
)

func compileCampus(t *testing.T, program snap.Policy) *snap.Deployment {
	t.Helper()
	network := snap.Campus(1000)
	dep, err := snap.Compile(program, network, snap.Gravity(network, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func runningExample() snap.Policy {
	return snap.Then(
		snap.Assumption(6),
		snap.Then(snap.DNSTunnelDetect(), snap.AssignEgress(6)),
	)
}

func TestCompileAndInject(t *testing.T) {
	dep := compileCampus(t, runningExample())

	// The §2.2 result through the public API: all three variables on D4.
	const d4 = snap.NodeID(5)
	for _, v := range []string{"orphan", "susp-client", "blacklist"} {
		if got := dep.Placement()[v]; got != d4 {
			t.Errorf("%s on %v, want D4", v, got)
		}
	}

	dns := snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport:   snap.Int(1),
		snap.SrcIP:    snap.IPv4(10, 0, 1, 1),
		snap.DstIP:    snap.IPv4(10, 0, 6, 6),
		snap.SrcPort:  snap.Int(53),
		snap.DstPort:  snap.Int(3456),
		snap.DNSRData: snap.IPv4(10, 0, 2, 2),
	})
	out, err := dep.Inject(1, dns)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 6 {
		t.Fatalf("deliveries: %v", out)
	}
	if dep.GlobalState().String() == "" {
		t.Fatal("stateful packet left no state")
	}
}

func TestEvalMatchesDeployment(t *testing.T) {
	program := runningExample()
	dep := compileCampus(t, program)
	st := snap.NewStore()
	p := snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport:   snap.Int(2),
		snap.SrcIP:    snap.IPv4(10, 0, 2, 9),
		snap.DstIP:    snap.IPv4(10, 0, 6, 1),
		snap.SrcPort:  snap.Int(53),
		snap.DstPort:  snap.Int(1111),
		snap.DNSRData: snap.IPv4(10, 0, 3, 3),
	})
	res, err := snap.Eval(program, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Inject(2, p); err != nil {
		t.Fatal(err)
	}
	if !dep.GlobalState().Equal(res.Store) {
		t.Fatalf("facade eval and plane disagree:\n%s\nvs\n%s", res.Store, dep.GlobalState())
	}
}

func TestRouteAndCongestion(t *testing.T) {
	dep := compileCampus(t, runningExample())
	nodes, ok := dep.Route(1, 6)
	if !ok || len(nodes) < 2 {
		t.Fatalf("route(1,6): %v %v", nodes, ok)
	}
	// Every route toward port 6 passes D4 (it holds the state and the
	// egress).
	found := false
	for _, n := range nodes {
		if n == snap.NodeID(5) {
			found = true
		}
	}
	if !found {
		t.Fatalf("route(1,6) misses D4: %v", nodes)
	}
	if dep.Congestion() <= 0 {
		t.Fatal("congestion must be positive")
	}
	if dep.XFDDSize() < 10 {
		t.Fatalf("xFDD suspiciously small: %d", dep.XFDDSize())
	}
	if !strings.Contains(dep.Summary(), "state") {
		t.Fatal("summary must report placement")
	}
}

func TestRecompileAndReroute(t *testing.T) {
	dep := compileCampus(t, runningExample())

	fw, ok := snap.AppByName("stateful-firewall")
	if !ok {
		t.Fatal("catalogue missing stateful-firewall")
	}
	fwPolicy, err := fw.Policy()
	if err != nil {
		t.Fatal(err)
	}
	next, err := dep.Recompile(snap.Then(snap.Assumption(6), snap.Then(fwPolicy, snap.AssignEgress(6))))
	if err != nil {
		t.Fatal(err)
	}
	if next.Times().P4Model != 0 {
		t.Error("recompile must reuse the model")
	}
	if _, ok := next.Placement()["established"]; !ok {
		t.Error("new variable unplaced")
	}

	shifted, err := dep.Reroute(snap.Gravity(snap.Campus(1000), 500, 42))
	if err != nil {
		t.Fatal(err)
	}
	for v, n := range dep.Placement() {
		if shifted.Placement()[v] != n {
			t.Error("reroute moved state")
		}
	}
}

func TestParseAPI(t *testing.T) {
	p, err := snap.Parse(`if srcport = 53 then seen[dstip] <- True else id`)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() == "" {
		t.Fatal("empty rendering")
	}
	if _, err := snap.Parse("syntax error ("); err == nil {
		t.Fatal("bad program must fail")
	}
	if snap.MustParse("id").String() != "id" {
		t.Fatal("MustParse")
	}
}

func TestAppsCatalogue(t *testing.T) {
	all := snap.Apps()
	if len(all) < 20 {
		t.Fatalf("catalogue has %d apps, want ≥ 20 (Table 3)", len(all))
	}
	for _, a := range all {
		if _, err := a.Policy(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	if _, ok := snap.AppByName("nonesuch"); ok {
		t.Fatal("unknown app resolved")
	}
}

func TestShardingAPI(t *testing.T) {
	plan := snap.ShardByPorts("count", []int{1, 2, 3, 4, 5, 6})
	sharded, err := snap.ApplyShard(snap.Monitor(), plan)
	if err != nil {
		t.Fatal(err)
	}
	dep := compileCampus(t, snap.Then(
		snap.Assumption(6),
		snap.Then(sharded, snap.AssignEgress(6)),
	))
	// Each shard sits on (or near) its own port's edge; at least the
	// placements are not all identical.
	locs := map[snap.NodeID]bool{}
	for _, n := range dep.Placement() {
		locs[n] = true
	}
	if len(locs) < 2 {
		t.Fatalf("shards collapsed onto one switch: %v", dep.Placement())
	}
	// Traffic from port 3 increments only shard count@3.
	p := snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport: snap.Int(3),
		snap.SrcIP:  snap.IPv4(10, 0, 3, 1),
		snap.DstIP:  snap.IPv4(10, 0, 1, 1),
	})
	if _, err := dep.Inject(3, p); err != nil {
		t.Fatal(err)
	}
	got := dep.GlobalState().String()
	if !strings.Contains(got, "count@3[3] = 1") {
		t.Fatalf("shard not updated:\n%s", got)
	}
}

func TestExactOptimizerOption(t *testing.T) {
	// A tiny 2-port line where the exact engine is feasible.
	links := []snap.Link{
		{From: 0, To: 1, Capacity: 10},
		{From: 1, To: 0, Capacity: 10},
	}
	net, err := snap.NewTopology("line2", 2, links, []snap.Port{
		{ID: 1, Switch: 0}, {ID: 2, Switch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	program := snap.Then(snap.Monitor(), snap.AssignEgress(2))
	dep, err := snap.Compile(program, net, snap.UniformTraffic(net, 1), snap.WithExactOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dep.Placement()["count"]; !ok {
		t.Fatal("exact engine placed nothing")
	}
}

// TestFaultToleranceAPI exercises the public fault surface: replicated
// compilation, failure assessment, the compile-side Failover scenario, and
// the live controller failover with replica promotion.
func TestFaultToleranceAPI(t *testing.T) {
	network := snap.Campus(1000)
	tm := snap.Gravity(network, 100, 1)
	program := snap.Then(snap.Assumption(6), snap.Then(snap.Monitor(), snap.AssignEgress(6)))
	dep, err := snap.Compile(program, network, tm, snap.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := dep.Placement()["count"]
	if !ok {
		t.Fatal("monitor placed no counter")
	}
	backups := dep.Replicas()["count"]
	if len(backups) != 1 || backups[0] == owner {
		t.Fatalf("replicas = %v (owner %d), want one distinct backup", backups, owner)
	}

	// Scenario enumeration covers at least every switch and link.
	if ss := snap.FailureScenarios(network, 3, 1); len(ss) < network.Switches {
		t.Fatalf("only %d scenarios", len(ss))
	}

	// Assessment: killing the owner orphans count, but the replica covers it.
	ev := snap.SwitchFailure(owner)
	im, err := dep.AssessFailure(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Orphans) != 1 || im.Orphans[0] != "count" || len(im.Uncovered) != 0 {
		t.Fatalf("impact = %+v, want count orphaned and covered", im)
	}

	// Compile-side failover: a fresh deployment on the surviving network.
	dep2, err := dep.Failover(ev)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner := dep2.Placement()["count"]; newOwner == owner {
		t.Fatalf("failover deployment kept the dead owner %d", owner)
	}

	// Live failover: warm an engine, kill the owner, recover with state.
	eng := dep.Engine(snap.EngineOptions{Workers: 2})
	defer eng.Close()
	ctl := dep.Controller(eng, snap.ControllerOptions{})
	pairs := tm.Replay(1000, 5)
	trace := make([]snap.Ingress, len(pairs))
	for i, uv := range pairs {
		trace[i] = snap.Ingress{Port: uv[0], Packet: snap.NewPacket(map[snap.Field]snap.Value{
			snap.Inport: snap.Int(int64(uv[0])),
			snap.SrcIP:  snap.IPv4(10, 0, byte(uv[0]), 1),
			snap.DstIP:  snap.IPv4(10, 0, byte(uv[1]), 1),
		})}
	}
	if err := eng.InjectReplay(trace); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()
	if rs := eng.ReplicaStats(); rs.Lag != 0 || rs.Enqueued == 0 {
		t.Fatalf("replica stats %+v", rs)
	}
	rep, err := ctl.Failover(ev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostEntries != 0 || rep.LostWrites != 0 || rep.Recovered == 0 {
		t.Fatalf("failover lost state: %+v", rep)
	}
	if _, ok := rep.Promoted["count"]; !ok {
		t.Fatalf("count not promoted: %+v", rep.Promoted)
	}
}

// TestDeploymentLifecycleNoGoroutineLeak: a Deployment's own data plane is
// a single-worker engine that never mirrors writes, so compile-side
// lifecycles — Compile, Inject, Recompile, Reroute, Failover, with and
// without replication — start no goroutine and need no Close.
func TestDeploymentLifecycleNoGoroutineLeak(t *testing.T) {
	network := snap.Campus(1000)
	tm := snap.Gravity(network, 100, 1)
	tm2 := snap.Gravity(network, 100, 2)
	program := snap.Then(snap.Assumption(6), snap.Then(snap.Monitor(), snap.AssignEgress(6)))
	edited := snap.Then(snap.Assumption(6), snap.Then(snap.Par(snap.Monitor(), snap.DNSTunnelDetect()), snap.AssignEgress(6)))
	p := snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport: snap.Int(1),
		snap.SrcIP:  snap.IPv4(10, 0, 1, 1),
		snap.DstIP:  snap.IPv4(10, 0, 6, 1),
	})
	base := runtime.NumGoroutine()
	for _, opts := range [][]snap.CompileOption{nil, {snap.WithReplication(2)}} {
		for round := 0; round < 50; round++ {
			dep, err := snap.Compile(program, network, tm, opts...)
			if err != nil {
				t.Fatal(err)
			}
			inject := func(d *snap.Deployment) {
				t.Helper()
				if out, err := d.Inject(1, p); err != nil || len(out) != 1 {
					t.Fatalf("round %d: inject = %v, %v", round, out, err)
				}
			}
			inject(dep)
			if dep, err = dep.Recompile(edited); err != nil {
				t.Fatal(err)
			}
			inject(dep)
			if dep, err = dep.Reroute(tm2); err != nil {
				t.Fatal(err)
			}
			inject(dep)
			owner := dep.Placement()["count"]
			if dep, err = dep.Failover(snap.SwitchFailure(owner)); err != nil {
				t.Fatal(err)
			}
			inject(dep)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("deployment lifecycles leaked goroutines: %d before, %d after\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}
