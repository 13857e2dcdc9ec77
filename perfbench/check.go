package main

import (
	"time"

	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/state"
)

// finalChecks runs the checks that need the one-big-switch semantics over
// many packets; they run after the measured time and count into check_s.
func (r *runner) finalChecks() {
	t0 := time.Now()
	defer func() { r.checkTime += time.Since(t0) }()
	if r.sp.dns {
		r.oraclePrefix()
	} else {
		r.counterModel()
	}
	r.boundary("final")
}

// oraclePrefix replays a bounded stream prefix one packet at a time
// through a fresh engine running the live configuration and compares
// every packet's deliveries, and the final state, with a semantics.Eval
// shadow of the live policy. The engine uses the workload's options, so
// at one worker the order is the stream's and the comparison is exact
// for this order-sensitive policy.
func (r *runner) oraclePrefix() {
	eng := dataplane.NewEngine(r.eng.Config(), r.sp.engine)
	defer eng.Close()
	src := r.sp.stream(r.seed ^ 0x0bac1e)
	in := make([]dataplane.Ingress, 1)
	shadow := state.NewStore()
	for i := 0; i < r.sp.oraclePrefix; i++ {
		src.fill(in)
		r.attempted++
		want, next, err := predict(r.policy, shadow, in[0].Packet)
		if err != nil {
			r.fail("oracle packet %d: %v", i, err)
			return
		}
		shadow = next
		out, err := eng.InjectBatch(in)
		if err != nil {
			r.fail("oracle packet %d: inject: %v", i, err)
			return
		}
		if !sameDeliveries(out[0], want) {
			r.fail("oracle packet %d: engine delivered %d copies, semantics predicts %d", i, len(out[0]), len(want))
		}
	}
	r.attempted++
	if !eng.GlobalState().Equal(shadow) {
		r.fail("oracle: engine state after %d packets differs from the semantics shadow", r.sp.oraclePrefix)
	}
}

// counterModel proves the arithmetic shadow the counter workloads are
// checked against agrees with semantics.Eval for every variant of the
// rotation, packet by packet, on a stream prefix.
func (r *runner) counterModel() {
	const n = 200
	for v := range counterInner {
		p, err := parser.Parse(counterPolicySrc(r.sp.ports, v))
		if err != nil {
			r.fail("counter model: parse variant %d: %v", v, err)
			continue
		}
		src := r.sp.stream(r.seed ^ int64(0x0bac1e+v))
		in := make([]dataplane.Ingress, 1)
		model, sem := state.NewStore(), state.NewStore()
		for i := 0; i < n; i++ {
			src.fill(in)
			r.attempted++
			want, next, err := predict(p, sem, in[0].Packet)
			if err != nil {
				r.fail("counter model variant %d packet %d: %v", v, i, err)
				break
			}
			sem = next
			countApply(model, v, in[0].Packet)
			if len(want) != 1 {
				r.fail("counter model variant %d packet %d: semantics delivers %d copies, want 1", v, i, len(want))
			}
		}
		r.attempted++
		if !model.Equal(sem) {
			r.fail("counter model variant %d: arithmetic shadow differs from semantics.Eval", v)
		}
	}
}
