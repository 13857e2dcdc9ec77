package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
)

// The generated policy sources are the paper's policies: on a stream
// prefix they evaluate exactly like the catalogue's constructions.
func TestPolicySourcesMatchCatalogue(t *testing.T) {
	n := 6
	got, err := parser.Parse(dnsPolicySrc(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := syntax.Then(apps.Assumption(n), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(n)))
	sg, sw := state.NewStore(), state.NewStore()
	src := dnsStream(7, n)
	in := make([]dataplane.Ingress, 1)
	for i := 0; i < 300; i++ {
		src.fill(in)
		rg, err := semantics.Eval(got, sg, in[0].Packet)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := semantics.Eval(want, sw, in[0].Packet)
		if err != nil {
			t.Fatal(err)
		}
		sg, sw = rg.Store, rw.Store
		if len(rg.Packets) != 1 || len(rw.Packets) != 1 || rg.Packets[0].Key() != rw.Packets[0].Key() {
			t.Fatalf("packet %d: generated policy emits %v, catalogue %v", i, rg.Packets, rw.Packets)
		}
	}
	if !sg.Equal(sw) {
		t.Fatal("generated DNS policy and catalogue policy end in different states")
	}
	for _, v := range sg.Vars() {
		if len(sg.Entries(v)) == 0 {
			t.Errorf("stream prefix never wrote %s", v)
		}
	}
	for v := range counterInner {
		if _, err := parser.Parse(counterPolicySrc(11, v)); err != nil {
			t.Errorf("counter variant %d: %v", v, err)
		}
	}
}

// The same seed yields the same stream; another seed a different one.
func TestStreamSeeded(t *testing.T) {
	a, b, c := make([]dataplane.Ingress, 64), make([]dataplane.Ingress, 64), make([]dataplane.Ingress, 64)
	dnsStream(3, 6).fill(a)
	dnsStream(3, 6).fill(b)
	dnsStream(4, 6).fill(c)
	same, diff := true, false
	for i := range a {
		same = same && a[i].Port == b[i].Port && a[i].Packet.Key() == b[i].Packet.Key()
		diff = diff || a[i].Packet.Key() != c[i].Packet.Key()
	}
	if !same || !diff {
		t.Errorf("same seed identical: %v, other seed differs: %v", same, diff)
	}
}

// counts are the data-plane and compiler counters that must repeat
// exactly between two runs of one seed at Workers=1.
type counts struct {
	Hops, Suspends, Delivered, Dropped int64
	Deliveries                         []string
	XFDDNodes, Instrs                  int
	State                              string
}

// runCounts compiles the workload's deployed policy, replays a stream
// prefix through a one-worker engine, applies the first edit and replays
// more, recording every delivery of a one-packet probe after each chunk.
func runCounts(t *testing.T, sp *spec, seed int64) counts {
	t.Helper()
	opts := sp.engine
	opts.Workers = 1
	p, err := parser.Parse(sp.policySrc(0))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.ColdStart(p, sp.topo, sp.demands, sp.place)
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, opts)
	defer eng.Close()
	var c counts
	c.XFDDNodes = comp.Diagram.Size()
	for _, sc := range comp.Config.Switches {
		c.Instrs += len(sc.Prog.Instrs)
	}
	src := sp.stream(seed)
	buf := make([]dataplane.Ingress, 2048)
	for i := 0; i < 4; i++ {
		if i == 2 {
			next, err := comp.PolicyChange(parser.MustParse(sp.policySrc(1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyConfig(next.Config, nil); err != nil {
				t.Fatal(err)
			}
		}
		src.fill(buf)
		if err := eng.InjectReplay(buf); err != nil {
			t.Fatal(err)
		}
		src.fill(buf[:1])
		out, err := eng.InjectBatch(buf[:1])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range out[0] {
			c.Deliveries = append(c.Deliveries, d.Packet.Key())
		}
	}
	st := eng.Stats()
	c.Hops, c.Suspends, c.Delivered, c.Dropped = st.Hops, st.Suspends, st.Delivered, st.Dropped
	c.State = eng.GlobalState().String()
	return c
}

func TestDeterministicAtOneWorker(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "igen-compile" && testing.Short() {
				t.Skip("IGen-120 compiles take a second")
			}
			sp, err := w.build(5)
			if err != nil {
				t.Fatal(err)
			}
			a, b := runCounts(t, sp, 5), runCounts(t, sp, 5)
			if a.Hops == 0 || a.Delivered == 0 {
				t.Fatalf("no traffic ran: %+v", a)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs of seed 5 differ:\n hops %d/%d suspends %d/%d delivered %d/%d nodes %d/%d instrs %d/%d state equal %v",
					a.Hops, b.Hops, a.Suspends, b.Suspends, a.Delivered, b.Delivered, a.XFDDNodes, b.XFDDNodes, a.Instrs, b.Instrs, a.State == b.State)
			}
		})
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
