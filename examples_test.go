// Runnable godoc examples for the public API — the same snippets README.md
// and docs/ARCHITECTURE.md quote. `go test` executes them and checks their
// output, so the documented behavior cannot rot.
package snap_test

import (
	"fmt"
	"log"

	"snap"
)

// dnsPacket is the §4.5 walk-through packet: a DNS response entering the
// campus at port 1, addressed to the CS department subnet behind port 6.
func dnsPacket() snap.Packet {
	return snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport:   snap.Int(1),
		snap.SrcIP:    snap.IPv4(10, 0, 1, 1),
		snap.DstIP:    snap.IPv4(10, 0, 6, 6),
		snap.SrcPort:  snap.Int(53),
		snap.DstPort:  snap.Int(9999),
		snap.DNSRData: snap.IPv4(10, 0, 2, 2),
	})
}

// ExampleParse parses a stateful program in the paper's surface syntax
// (Figure 1's first clause) into the policy AST.
func ExampleParse() {
	policy, err := snap.Parse(`
if dstip = 10.0.6.0/24 & srcport = 53 then
  seen[dstip][dns.rdata] <- True
else id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(policy)
	// Output:
	// (if (dstip = 10.0.6.0/24 & srcport = 53) then seen[dstip][dns.rdata] <- True else id)
}

// ExampleEval runs the one-big-switch denotational semantics directly:
// policy × store × packet → packets × new store. This is the language
// specification every compiled deployment is checked against.
func ExampleEval() {
	policy := snap.MustParse(`
if dstip = 10.0.6.0/24 & srcport = 53 then
  seen[dstip][dns.rdata] <- True
else id`)
	res, err := snap.Eval(policy, snap.NewStore(), dnsPacket())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d packet(s) out\n", len(res.Packets))
	fmt.Print(res.Store)
	// Output:
	// 1 packet(s) out
	// seen[10.0.6.6][10.0.2.2] = True
}

// ExampleCompile runs the full pipeline — dependency analysis, xFDD,
// packet-state mapping, joint placement/routing, per-switch NetASM rules —
// and pushes one packet through the resulting distributed data plane.
func ExampleCompile() {
	policy := snap.MustParse(`
if dstip = 10.0.6.0/24 & srcport = 53 then
  seen[dstip][dns.rdata] <- True
else id`)
	program := snap.Then(
		snap.Par(policy, snap.Monitor()), // + count[inport]++
		snap.AssignEgress(6),             // forward by destination subnet
	)
	network := snap.Campus(1000)
	dep, err := snap.Compile(program, network, snap.Gravity(network, 100, 1))
	if err != nil {
		log.Fatal(err)
	}
	out, err := dep.Inject(1, dnsPacket())
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range out {
		fmt.Printf("delivered at port %d\n", d.Port)
	}
	fmt.Print(dep.GlobalState())
	// Output:
	// delivered at port 6
	// count[1] = 1
	// seen[10.0.6.6][10.0.2.2] = True
}

// ExampleDeployment_Engine serves a batch through the concurrent data
// plane: a pool of workers, each running its packets to completion, with
// state guarded by striped per-variable locks. Batch results are grouped per
// injection and the final state matches a sequential run, because the
// workload's updates (counters, monotone flags) commute.
func ExampleDeployment_Engine() {
	program := snap.Then(snap.Monitor(), snap.AssignEgress(6))
	network := snap.Campus(1000)
	dep, err := snap.Compile(program, network, snap.Gravity(network, 100, 1))
	if err != nil {
		log.Fatal(err)
	}
	eng := dep.Engine(snap.EngineOptions{Workers: 4})
	defer eng.Close()

	batch := []snap.Ingress{
		{Port: 1, Packet: dnsPacket()},
		{Port: 1, Packet: dnsPacket()},
	}
	outs, err := eng.InjectBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, ds := range outs {
		fmt.Printf("injection %d: %d delivery(ies)\n", i, len(ds))
	}
	fmt.Print(eng.GlobalState())
	// Output:
	// injection 0: 1 delivery(ies)
	// injection 1: 1 delivery(ies)
	// count[1] = 2
}

// subnetPacket builds a packet entering at port u addressed to port v's
// subnet, so assign-egress forwards it to v.
func subnetPacket(u, v int) snap.Packet {
	return snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport: snap.Int(int64(u)),
		snap.SrcIP:  snap.IPv4(10, 0, byte(u), 1),
		snap.DstIP:  snap.IPv4(10, 0, byte(v), 2),
	})
}

// ExampleDeployment_Controller runs the live-reconfiguration control
// loop: after the observed traffic drifts from the matrix the deployment
// was optimized for, the controller recompiles incrementally, migrates
// state to its new owner switches, and hot-swaps the running engine — no
// packet and no state entry is lost.
func ExampleDeployment_Controller() {
	program := snap.Then(snap.Monitor(), snap.AssignEgress(6))
	network := snap.Campus(1000)
	tmA := snap.Gravity(network, 100, 1)
	dep, err := snap.Compile(program, network, tmA)
	if err != nil {
		log.Fatal(err)
	}
	eng := dep.Engine(snap.EngineOptions{Workers: 4})
	defer eng.Close()
	ctl := dep.Controller(eng, snap.ControllerOptions{
		Threshold: 0.2,
		MinSample: 100,
		Mode:      snap.RePlace,
	})

	// Replay traffic from a *different* matrix so the observed matrix
	// diverges, then poll the loop.
	tmB := snap.Gravity(network, 100, 2)
	trace := make([]snap.Ingress, 0, 600)
	for _, uv := range tmB.Replay(600, 7) {
		trace = append(trace, snap.Ingress{Port: uv[0], Packet: subnetPacket(uv[0], uv[1])})
	}
	if err := eng.InjectReplay(trace); err != nil {
		log.Fatal(err)
	}
	before := eng.GlobalState()
	rec, err := ctl.Step()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfigured to epoch %d with %d state move(s)\n", rec.Epoch, len(rec.Plan.Moves))
	fmt.Printf("state preserved: %v\n", eng.GlobalState().Equal(before))
	// Output:
	// reconfigured to epoch 1 with 1 state move(s)
	// state preserved: true
}
