package dataplane_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
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

// deploy compiles a policy end to end onto a topology.
func deploy(t *testing.T, p syntax.Policy, net *topo.Topology, fixed map[string]topo.NodeID) *rules.Config {
	t.Helper()
	d, order, err := xfdd.Translate(p)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	in := place.Inputs{
		Topo:    net,
		Demands: traffic.Gravity(net, 100, 9),
		Mapping: psmap.Build(d, net.PortIDs()),
		Order:   order,
	}
	var res *place.Result
	if fixed != nil {
		res, err = place.SolveTE(in, fixed, place.Options{})
	} else {
		res, err = place.Solve(in, place.Options{Method: place.Heuristic})
	}
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	cfg, err := rules.Generate(d, net, res.Placement, res.Routes)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	return cfg
}

// specStep evaluates one packet under the one-big-switch semantics — the
// specification every execution path is checked against — returning the
// deliveries it prescribes (output packets whose outport is an OBS port
// of net, keyed like deliveryKey) and the updated store. A dynamic state
// conflict leaves the semantics undefined from there on, so the test is
// skipped, as the xFDD fuzz suite does.
func specStep(t *testing.T, policy syntax.Policy, st *state.Store, p pkt.Packet, net *topo.Topology) (map[string]bool, *state.Store) {
	t.Helper()
	res, err := semantics.Eval(policy, st, p)
	if err != nil {
		var ce *semantics.ConflictError
		if errors.As(err, &ce) {
			t.Skipf("dynamic state conflict, reference undefined: %v", err)
		}
		t.Fatalf("semantics eval: %v", err)
	}
	want := map[string]bool{}
	for _, wp := range res.Packets {
		out := wp.Field(pkt.Outport)
		if out.Kind != values.KindInt {
			continue
		}
		if _, ok := net.PortByID(int(out.Num)); !ok {
			continue
		}
		want[fmt.Sprintf("%d|%s", out.Num, wp.Key())] = true
	}
	return want, res.Store
}

// checkDeliveries requires an injection's deliveries to equal the set the
// specification prescribes.
func checkDeliveries(t *testing.T, what string, got []dataplane.Delivery, want map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d, semantics says %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for _, d := range got {
		if !want[deliveryKey(d)] {
			t.Fatalf("%s: delivery %s not in semantics output %v", what, deliveryKey(d), want)
		}
	}
}

// injectOne runs one packet through the engine as a batch of one.
func injectOne(t *testing.T, eng *dataplane.Engine, port int, p pkt.Packet) []dataplane.Delivery {
	t.Helper()
	got, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: p}})
	if err != nil {
		t.Fatalf("inject at port %d: %v", port, err)
	}
	return got[0]
}

func campusPacket(rng *rand.Rand) (int, pkt.Packet) {
	port := 1 + rng.Intn(6)
	ip := func(subnet int) values.Value {
		return values.IPv4(10, 0, byte(subnet), byte(1+rng.Intn(3)))
	}
	p := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:   values.Int(int64(port)),
		pkt.SrcIP:    ip(port), // honors the assumption policy
		pkt.DstIP:    ip(1 + rng.Intn(6)),
		pkt.SrcPort:  values.Int([]int64{53, 80, 1234}[rng.Intn(3)]),
		pkt.DstPort:  values.Int([]int64{53, 80, 1234}[rng.Intn(3)]),
		pkt.DNSRData: ip(1 + rng.Intn(6)),
	})
	return port, p
}

// checkPlane injects a trace into a single-worker engine and requires,
// after every packet, the deliveries and the global state the
// one-big-switch semantics prescribes.
func checkPlane(t *testing.T, policy syntax.Policy, cfg *rules.Config, trace []struct {
	port int
	p    pkt.Packet
}) {
	t.Helper()
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1})
	defer eng.Close()
	ref := state.NewStore()
	for i, tp := range trace {
		want, next := specStep(t, policy, ref, tp.p, cfg.Topo)
		ref = next
		checkDeliveries(t, fmt.Sprintf("packet %d (%v)", i, tp.p), injectOne(t, eng, tp.port, tp.p), want)
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: state divergence\nplane:\n%s\nref:\n%s", i, eng.GlobalState(), ref)
		}
	}
}

// TestCampusEndToEnd runs the paper's running composition over the Figure 2
// campus and checks full equivalence with the OBS semantics.
func TestCampusEndToEnd(t *testing.T) {
	netw := topo.Campus(1000)
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Then(
			syntax.Par(apps.DNSTunnelDetect(), apps.Monitor()),
			apps.AssignEgress(6),
		),
	)
	cfg := deploy(t, p, netw, nil)
	rng := rand.New(rand.NewSource(3))
	var trace []struct {
		port int
		p    pkt.Packet
	}
	for i := 0; i < 400; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, struct {
			port int
			p    pkt.Packet
		}{port, pk})
	}
	checkPlane(t, p, cfg, trace)
}

// TestStateAtC6 reproduces the §4.5 walk-through: with all state pinned on
// C6, a DNS response entering port 1 is processed up to the state test at
// the ingress, continues at C6 (which ends up holding the state), and exits
// at port 6 via D4.
func TestStateAtC6(t *testing.T) {
	netw := topo.Campus(1000)
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)),
	)
	const c6 = topo.NodeID(11)
	fixed := map[string]topo.NodeID{"orphan": c6, "susp-client": c6, "blacklist": c6}
	eng := dataplane.NewEngine(deploy(t, p, netw, fixed), dataplane.Options{Workers: 1})
	defer eng.Close()

	dns := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:   values.Int(1),
		pkt.SrcIP:    values.IPv4(10, 0, 1, 1),
		pkt.DstIP:    values.IPv4(10, 0, 6, 6),
		pkt.SrcPort:  values.Int(53),
		pkt.DstPort:  values.Int(9999),
		pkt.DNSRData: values.IPv4(10, 0, 2, 2),
	})
	got := injectOne(t, eng, 1, dns)
	if len(got) != 1 || got[0].Port != 6 {
		t.Fatalf("want delivery at port 6, got %v", got)
	}
	// The state lives on C6, not on the edge.
	if tbl := eng.SwitchTable(c6); len(tbl.Vars()) == 0 {
		t.Fatalf("C6 holds no state after a stateful packet")
	}
	want, ref := specStep(t, p, state.NewStore(), dns, netw)
	checkDeliveries(t, "DNS response", got, want)
	if !eng.GlobalState().Equal(ref) {
		t.Fatalf("state mismatch:\nplane %s\nref %s", eng.GlobalState(), ref)
	}
}

// TestStatefulFirewallPlane checks a drop-heavy policy: outside packets
// blocked until an inside connection establishes state, across switches.
func TestStatefulFirewallPlane(t *testing.T) {
	netw := topo.Campus(1000)
	fw, _ := apps.ByName("stateful-firewall")
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Then(fw.MustPolicy(), apps.AssignEgress(6)),
	)
	eng := dataplane.NewEngine(deploy(t, p, netw, nil), dataplane.Options{Workers: 1})
	defer eng.Close()

	inside := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(6),
		pkt.SrcIP:   values.IPv4(10, 0, 6, 1),
		pkt.DstIP:   values.IPv4(10, 0, 2, 9),
		pkt.SrcPort: values.Int(4242),
		pkt.DstPort: values.Int(80),
	})
	outsideReply := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(2),
		pkt.SrcIP:   values.IPv4(10, 0, 2, 9),
		pkt.DstIP:   values.IPv4(10, 0, 6, 1),
		pkt.SrcPort: values.Int(80),
		pkt.DstPort: values.Int(4242),
	})
	strangerProbe := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(3),
		pkt.SrcIP:   values.IPv4(10, 0, 3, 3),
		pkt.DstIP:   values.IPv4(10, 0, 6, 1),
		pkt.SrcPort: values.Int(1000),
		pkt.DstPort: values.Int(22),
	})

	ref := state.NewStore()
	step := func(port int, pk pkt.Packet, wantDeliveries int) {
		t.Helper()
		got := injectOne(t, eng, port, pk)
		if len(got) != wantDeliveries {
			t.Fatalf("inject at %d: want %d deliveries, got %v", port, wantDeliveries, got)
		}
		want, next := specStep(t, p, ref, pk, netw)
		ref = next
		checkDeliveries(t, fmt.Sprintf("inject at %d", port), got, want)
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("state divergence after port %d", port)
		}
	}

	step(3, strangerProbe, 0) // blocked: no established entry
	step(6, inside, 1)        // inside opens the connection
	step(2, outsideReply, 1)  // reply now allowed
	step(3, strangerProbe, 0) // still blocked
}
