// Package dataplane simulates the distributed network executing a compiled
// SNAP program: one NetASM switch VM per physical switch, wired by the
// topology, with packets entering at OBS ports carrying the SNAP-header of
// §4.5. It is the end-to-end check that compilation preserves the
// language's one-big-switch semantics: packets injected here must exit the
// same ports with the same headers, and leave behind the same global state,
// as the eval function says they should.
//
// One runtime, the Engine (engine.go), executes the compiled configuration
// under either of two concurrency disciplines: striped state locks, or
// state-compute replication (scr.go). See docs/ARCHITECTURE.md for the
// invariants it maintains.
package dataplane

import (
	"fmt"
	"sort"

	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/rules"
	"snap/internal/topo"
)

// Delivery is a packet leaving the network at an OBS port.
type Delivery struct {
	Port   int
	Packet pkt.Packet
}

// linkKey identifies a distinct linkable image: rules shares one Program
// across all switches with the same ownership set, so (program pointer,
// ownership signature) is the image's identity within one variable space.
type linkKey struct {
	prog *netasm.Program
	owns string
}

// linkPrograms links every switch's program against the configuration's
// shared variable space, linking each distinct (program, ownership)
// combination once — a fleet of stateless switches links exactly one
// image.
func linkPrograms(cfg *rules.Config) map[topo.NodeID]*netasm.Linked {
	vs := cfg.VarSpace()
	cache := map[linkKey]*netasm.Linked{}
	out := make(map[topo.NodeID]*netasm.Linked, len(cfg.Switches))
	for id, sc := range cfg.Switches {
		k := linkKey{prog: sc.Prog, owns: rules.OwnsKey(sc.Owns)}
		lp, ok := cache[k]
		if !ok {
			lp = netasm.Link(sc.Prog, vs, sc.Owns)
			cache[k] = lp
		}
		out[id] = lp
	}
	return out
}

// appendDelivery adds a delivery unless an identical packet already exited
// the same port for this injection: the eval semantics returns packet
// *sets*, so multicast copies that end up indistinguishable collapse.
func appendDelivery(out []Delivery, d Delivery) []Delivery {
	for i := range out {
		if out[i].Port == d.Port && out[i].Packet.Equal(d.Packet) {
			return out
		}
	}
	return append(out, d)
}

// sortDeliveries orders deliveries canonically (port, then packet key),
// computing each packet's key once instead of once per comparison.
func sortDeliveries(ds []Delivery) {
	if len(ds) < 2 {
		return
	}
	keys := make([]string, len(ds))
	for i := range ds {
		keys[i] = ds[i].Packet.Key()
	}
	s := deliverySorter{ds: ds, keys: keys}
	sort.Sort(&s)
}

type deliverySorter struct {
	ds   []Delivery
	keys []string
}

func (s *deliverySorter) Len() int { return len(s.ds) }
func (s *deliverySorter) Less(i, j int) bool {
	if s.ds[i].Port != s.ds[j].Port {
		return s.ds[i].Port < s.ds[j].Port
	}
	return s.keys[i] < s.keys[j]
}
func (s *deliverySorter) Swap(i, j int) {
	s.ds[i], s.ds[j] = s.ds[j], s.ds[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// stateTarget resolves the switch a suspended packet must reach next: the
// owner of the suspending test's variable, or of the first pending write.
func stateTarget(cfg *rules.Config, r *netasm.Result) (topo.NodeID, bool) {
	v := r.StateVar
	if v == "" && r.Packet.Hdr.PendingLen() > 0 {
		v = r.Packet.Hdr.PendingAt(0).Var
	}
	node, ok := cfg.Placement[v]
	return node, ok
}

// nextHopLink picks the outgoing link from `at` toward `target`,
// returning the next switch and the traversed link index (so the engine
// can honor injected link failures: a send over a dead link drops). A
// packet still owing state visits (evaluation suspends or pending writes)
// follows the shortest-path next hop toward the owning switch — the
// Appendix D fallback, guaranteed to make progress. Once only the egress
// remains, the optimizer's (u,v) match-action entry is preferred.
func nextHopLink(cfg *rules.Config, at topo.NodeID, sp netasm.SimPacket, target topo.NodeID) (topo.NodeID, int, error) {
	sc := cfg.Switches[at]
	if sp.Hdr.OBSOut >= 0 && sp.Hdr.Phase == netasm.PhaseDeliver && sp.Hdr.PendingLen() == 0 {
		if li, ok := sc.RouteNext[[2]int{sp.Hdr.OBSIn, sp.Hdr.OBSOut}]; ok {
			return cfg.Topo.Links[li].To, li, nil
		}
	}
	li := sc.SPNext[target]
	if li < 0 {
		return 0, -1, fmt.Errorf("dataplane: switch %d cannot reach switch %d", at, target)
	}
	return cfg.Topo.Links[li].To, li, nil
}
