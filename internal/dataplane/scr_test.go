// Unit tests for the replication plumbing around scr.go: the link-time
// safety classification (and its fallback to locks), backup mirrors fed by
// the update log (under both disciplines, wide indexes included), the
// once-per-program wide-index diagnostics, and the lock-discipline
// contention counters the replication mode exists to eliminate.
package dataplane_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

// TestReplicationFallbackMixedActs: a policy that both assigns and
// increments the same variable has no convergent merge order, so the
// engine must refuse replication and run the lock discipline instead,
// reporting why.
func TestReplicationFallbackMixedActs(t *testing.T) {
	policy := campusWorkload(syntax.Then(
		syntax.WriteState("v", syntax.F(pkt.SrcIP), syntax.V(values.Int(1))),
		syntax.IncrState("v", syntax.F(pkt.DstIP)),
		apps.Monitor(),
	))
	eng, ok := newReplicatedEngine(t, policy, 2, 64)
	if ok {
		eng.Close()
		t.Fatal("mixed set/incr policy was classified replication-safe")
	}
	// newReplicatedEngine closed the refused engine; rebuild to inspect.
	netw := topo.Campus(1000)
	cfg := deploy(t, policy, netw, nil)
	eng2 := dataplane.NewEngine(cfg, dataplane.Options{
		Workers: 2, StateReplication: true,
	})
	defer eng2.Close()
	if eng2.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks fallback", eng2.ExecMode())
	}
	reasons := eng2.ReplicationFallback()
	if len(reasons) == 0 {
		t.Fatal("fallback engine reports no refusal reasons")
	}
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "mix") && strings.Contains(r, "v") {
			found = true
		}
	}
	if !found {
		t.Fatalf("refusal reasons do not name the mixed-act variable: %v", reasons)
	}
	// The refusal also lands in the link diagnostics, so snapsim -v shows
	// it without a dedicated API call.
	diags := eng2.LinkDiagnostics()
	joined := strings.Join(diags, "\n")
	if !strings.Contains(joined, "replication requested but refused") {
		t.Fatalf("link diagnostics omit the refusal: %v", diags)
	}
}

// TestReplicatedMirrorsUnderSCR: fault-tolerance mirrors (cfg.Replicas)
// are one more consumer of the replication workers' update log, so a K=2
// configuration runs state-compute replication with live backups: after a
// flush the backup equals the primary, and killing the primary loses
// nothing.
func TestReplicatedMirrorsUnderSCR(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			comp, tp, tm := compileCampus(t, 2)
			primary := comp.Config.Placement["count"]
			backups := comp.Result.Replicas["count"]
			if len(backups) != 1 {
				t.Fatalf("count backups = %v, want exactly one (K=2)", backups)
			}
			eng := dataplane.NewEngine(comp.Config, dataplane.Options{
				Workers: workers, StateReplication: true,
			})
			defer eng.Close()
			if eng.ExecMode() != dataplane.ModeReplication {
				t.Fatalf("exec mode = %v, want replication (fallback: %v)", eng.ExecMode(), eng.ReplicationFallback())
			}
			if fb := eng.ReplicationFallback(); len(fb) != 0 {
				t.Fatalf("replication fallback reported: %v", fb)
			}
			if err := eng.InjectReplay(trace(tm, 2000, 3)); err != nil {
				t.Fatal(err)
			}
			eng.FlushReplication()
			if rs := eng.ReplicaStats(); rs.Enqueued == 0 || rs.Lag != 0 {
				t.Fatalf("mirror pipeline after flush: %+v", rs)
			}
			prim := eng.SwitchTable(primary)
			if !prim.VarEqual(eng.ReplicaTable(backups[0]), "count") {
				t.Fatalf("backup %d diverges from primary %d\nprimary:\n%s\nbackup:\n%s",
					backups[0], primary, prim, eng.ReplicaTable(backups[0]))
			}

			before := eng.GlobalState()
			if err := eng.FailSwitch(primary); err != nil {
				t.Fatal(err)
			}
			degraded, err := tp.Degrade([]topo.NodeID{primary}, nil)
			if err != nil {
				t.Fatal(err)
			}
			comp2, err := comp.TopoFailover(degraded, tm)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := eng.Failover(comp2.Config, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fs.LostEntries != 0 || fs.LostWrites != 0 || fs.Recovered != len(prim.Entries("count")) {
				t.Fatalf("failover under SCR: %s, want all %d count entries recovered", fs, len(prim.Entries("count")))
			}
			if !eng.GlobalState().VarEqual(before, "count") {
				t.Fatal("count changed across failover")
			}
		})
	}
}

// TestWideIndexMirrors: a replicated variable written with an index wider
// than values.MaxVec takes the VM's slow path, and its writes must still
// reach the backup — the write hook carries the table's retained tuple.
func TestWideIndexMirrors(t *testing.T) {
	policy := campusWorkload(syntax.Then(
		syntax.IncrState("w", syntax.Vec(
			syntax.F(pkt.SrcIP), syntax.F(pkt.DstIP), syntax.F(pkt.SrcPort),
			syntax.F(pkt.DstPort), syntax.F(pkt.Proto),
		)),
		apps.Monitor(),
	))
	comp, tp, tm := compileCampusPolicy(t, policy, 2)
	primary := comp.Config.Placement["w"]
	backups := comp.Result.Replicas["w"]
	if len(backups) != 1 {
		t.Fatalf("w backups = %v, want exactly one (K=2)", backups)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 1000, 7)); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()
	prim := eng.SwitchTable(primary)
	es := prim.Entries("w")
	if len(es) == 0 || len(es[0].Idx) != 5 {
		t.Fatalf("primary holds no 5-wide w entries: %v", es)
	}
	if !prim.VarEqual(eng.ReplicaTable(backups[0]), "w") {
		t.Fatalf("backup diverges from primary\nprimary:\n%s\nbackup:\n%s", prim, eng.ReplicaTable(backups[0]))
	}

	before := eng.GlobalState()
	if err := eng.FailSwitch(primary); err != nil {
		t.Fatal(err)
	}
	degraded, err := tp.Degrade([]topo.NodeID{primary}, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := comp.TopoFailover(degraded, tm)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := eng.Failover(comp2.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.LostEntries != 0 || fs.Recovered < len(es) {
		t.Fatalf("failover: %s, want all %d w entries recovered", fs, len(es))
	}
	if !eng.GlobalState().VarEqual(before, "w") {
		t.Fatal("w changed across failover")
	}
}

// TestWideIndexDiagnostic: an index tuple wider than values.MaxVec drops
// the affected instructions to the interpreter slow path; the link step
// must say so exactly once per program, and (since the wide op is a write)
// it must also block replication.
func TestWideIndexDiagnostic(t *testing.T) {
	wide := syntax.Vec(
		syntax.F(pkt.SrcIP), syntax.F(pkt.DstIP), syntax.F(pkt.SrcPort),
		syntax.F(pkt.DstPort), syntax.F(pkt.Proto),
	)
	policy := campusWorkload(syntax.Then(
		syntax.IncrState("w", wide),
		apps.Monitor(),
	))
	netw := topo.Campus(1000)
	cfg := deploy(t, policy, netw, nil)

	diags := dataplane.LinkDiagnostics(cfg)
	seen := map[string]bool{}
	for _, d := range diags {
		if !strings.Contains(d, "interpreter slow path") {
			continue
		}
		// Once per distinct program: the "program of switch ..." prefix
		// must not repeat.
		prefix := d[:strings.Index(d, ":")]
		if seen[prefix] {
			t.Fatalf("wide-index diagnostic repeated for %q: %v", prefix, diags)
		}
		seen[prefix] = true
	}
	if len(seen) == 0 {
		t.Fatalf("no wide-index diagnostic in %v", diags)
	}

	eng := dataplane.NewEngine(cfg, dataplane.Options{
		Workers: 2, StateReplication: true,
	})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatal("wide-index write was classified replication-safe")
	}
	if got := eng.LinkDiagnostics(); len(got) == 0 {
		t.Fatal("engine exposes no link diagnostics")
	}
}

// TestLockContentionCounters: the lock discipline attributes blocked
// stripe acquisitions to variables and survives reconfiguration by folding
// retired planes into the engine history. On a single-core runner
// contention may legitimately be zero, so the assertions are structural:
// consistency between Stats and the per-variable map, and monotonicity
// across an ApplyConfig.
func TestLockContentionCounters(t *testing.T) {
	netw := topo.Campus(1000)
	cfg := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 4, Window: 32})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
	}
	rng := rand.New(rand.NewSource(11))
	batch := make([]dataplane.Ingress, 0, 400)
	for i := 0; i < 400; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if err := eng.InjectReplay(batch); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.LockSuspends < 0 || st.LockWaitNs < 0 {
		t.Fatalf("negative contention counters: %+v", st)
	}
	if st.LockSuspends > 0 && st.LockWaitNs == 0 {
		t.Fatal("suspends recorded with zero cumulative wait")
	}
	before := eng.LockContention()
	var total int64
	for v, c := range before {
		if c.Suspends <= 0 && c.WaitNs <= 0 {
			t.Fatalf("empty contention entry for %q", v)
		}
		total += c.Suspends
	}
	if total > st.LockSuspends {
		t.Fatalf("per-variable suspends %d exceed engine total %d", total, st.LockSuspends)
	}
	// Reconfigure to the same config: history must fold, not reset.
	if err := eng.ApplyConfig(cfg, nil); err != nil {
		t.Fatal(err)
	}
	after := eng.LockContention()
	for v, c := range before {
		if after[v].Suspends < c.Suspends || after[v].WaitNs < c.WaitNs {
			t.Fatalf("contention for %q shrank across reconfiguration: %+v -> %+v", v, c, after[v])
		}
	}
	// The replication discipline's entire point: same workload, zero lock
	// suspends (asserted hard in TestReplicatedConvergenceUnderLoad).
}
