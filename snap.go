// Package snap is a Go implementation of SNAP — "Stateful Network-Wide
// Abstractions for Packet Processing" (SIGCOMM 2016): a stateful SDN
// language with a one-big-switch programming model, compiled onto physical
// topologies by jointly optimizing state placement and traffic routing.
//
// Programs are built from predicates and policies (or parsed from the
// paper's surface syntax) and compiled against a topology and traffic
// matrix:
//
//	policy := snap.MustParse(`
//	  if dstip = 10.0.6.0/24 & srcport = 53 then
//	    seen[dstip][dns.rdata] <- True
//	  else id`)
//	dep, err := snap.Compile(snap.Then(policy, snap.AssignEgress(6)),
//	                         snap.Campus(1000), snap.Gravity(net, 100, 1))
//	deliveries, err := dep.Inject(1, packet)
//
// The package re-exports the language (internal/syntax, internal/parser),
// the evaluator (internal/semantics), topology and traffic generators, and
// the full compiler pipeline (dependency analysis → xFDD → packet-state
// mapping → placement/routing optimization → per-switch NetASM rules),
// plus the data-plane runtime executing compiled deployments: Engine, a
// worker pool running each packet to completion, which Deployment.Inject
// drives on the caller's goroutine and Deployment.Engine serves batched
// and streamed traffic with.
//
// docs/ARCHITECTURE.md documents every internal package with its paper
// cross-reference and invariants; README.md has the quickstart and the
// pipeline overview. The Example functions in examples_test.go are the
// runnable versions of both documents' snippets.
package snap

import (
	"snap/internal/apps"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// Core language types.
type (
	// Policy is a SNAP policy (Figure 4 of the paper).
	Policy = syntax.Policy
	// Pred is a SNAP predicate; every Pred is a Policy.
	Pred = syntax.Pred
	// Expr is an expression: a value, a field reference, or a vector.
	Expr = syntax.Expr
	// Value is a runtime value (IP, prefix, int, bool, string).
	Value = values.Value
	// Packet is a record of header fields.
	Packet = pkt.Packet
	// Field identifies a packet header field.
	Field = pkt.Field
	// Store holds the contents of all state variables.
	Store = state.Store
	// ParseOptions configures Parse (named constants and sub-policies).
	ParseOptions = parser.Options
	// App is a catalogued example application (Table 3).
	App = apps.App
)

// Topology and traffic types.
type (
	// Topology is a switch graph with external OBS ports.
	Topology = topo.Topology
	// NodeID identifies a switch.
	NodeID = topo.NodeID
	// Port is an external OBS port.
	Port = topo.Port
	// Link is a directed capacitated link.
	Link = topo.Link
	// TrafficMatrix maps OBS port pairs to demand volume.
	TrafficMatrix = traffic.Matrix
)

// Packet fields (the rich field set of §2.1).
const (
	Inport        = pkt.Inport
	Outport       = pkt.Outport
	SrcIP         = pkt.SrcIP
	DstIP         = pkt.DstIP
	SrcPort       = pkt.SrcPort
	DstPort       = pkt.DstPort
	Proto         = pkt.Proto
	TCPFlags      = pkt.TCPFlags
	EthSrc        = pkt.EthSrc
	EthDst        = pkt.EthDst
	DNSQName      = pkt.DNSQName
	DNSRData      = pkt.DNSRData
	DNSTTL        = pkt.DNSTTL
	FTPPort       = pkt.FTPPort
	SMTPMTA       = pkt.SMTPMTA
	HTTPUserAgent = pkt.HTTPUserAgent
	MPEGFrameType = pkt.MPEGFrameType
	SessionID     = pkt.SessionID
	Content       = pkt.Content
)

// --- Values ---

// Bool returns a boolean value.
func Bool(b bool) Value { return values.Bool(b) }

// Int returns an integer value.
func Int(n int64) Value { return values.Int(n) }

// String returns a string value.
func String(s string) Value { return values.String(s) }

// IPv4 returns an IPv4 address value.
func IPv4(a, b, c, d byte) Value { return values.IPv4(a, b, c, d) }

// PrefixV returns an IPv4 prefix value.
func PrefixV(addr uint32, length uint8) Value { return values.Prefix(addr, length) }

// NewPacket builds a packet from field assignments.
func NewPacket(fields map[Field]Value) Packet { return pkt.New(fields) }

// NewStore returns an empty state store.
func NewStore() *Store { return state.NewStore() }

// --- Language constructors (Figure 4) ---

// Id is the identity predicate.
func Id() Pred { return syntax.Id() }

// Drop drops every packet.
func Drop() Pred { return syntax.Nothing() }

// FieldEq is the test f = v.
func FieldEq(f Field, v Value) Pred { return syntax.FieldEq(f, v) }

// Not is negation.
func Not(x Pred) Pred { return syntax.Neg(x) }

// Or is disjunction over any number of predicates.
func Or(xs ...Pred) Pred { return syntax.Disj(xs...) }

// And is conjunction over any number of predicates.
func And(xs ...Pred) Pred { return syntax.Conj(xs...) }

// TestState is the stateful predicate s[idx] = val.
func TestState(s string, idx, val Expr) Pred { return syntax.TestState(s, idx, val) }

// Assign is the field modification f ← v.
func Assign(f Field, v Value) Policy { return syntax.Assign(f, v) }

// Par is parallel composition p + q.
func Par(ps ...Policy) Policy { return syntax.Par(ps...) }

// Then is sequential composition p; q.
func Then(ps ...Policy) Policy { return syntax.Then(ps...) }

// WriteState is the state update s[idx] ← val.
func WriteState(s string, idx, val Expr) Policy { return syntax.WriteState(s, idx, val) }

// IncrState is s[idx]++.
func IncrState(s string, idx Expr) Policy { return syntax.IncrState(s, idx) }

// DecrState is s[idx]--.
func DecrState(s string, idx Expr) Policy { return syntax.DecrState(s, idx) }

// If is the conditional "if a then p else q".
func If(a Pred, p, q Policy) Policy { return syntax.Cond(a, p, q) }

// Atomic is the network transaction atomic(p).
func Atomic(p Policy) Policy { return syntax.Transaction(p) }

// V lifts a value into an expression.
func V(v Value) Expr { return syntax.V(v) }

// F lifts a field reference into an expression.
func F(f Field) Expr { return syntax.F(f) }

// Vec builds a vector expression (composite state index).
func Vec(elems ...Expr) Expr { return syntax.Vec(elems...) }

// --- Parsing ---

// Parse parses a program in the paper's surface syntax.
func Parse(src string) (Policy, error) { return parser.Parse(src) }

// ParseWith parses with constant/sub-policy environments.
func ParseWith(src string, opts ParseOptions) (Policy, error) { return parser.ParseWith(src, opts) }

// MustParse parses or panics.
func MustParse(src string) Policy { return parser.MustParse(src) }

// --- Evaluation (the language specification) ---

// EvalResult is the outcome of evaluating a policy on one packet.
type EvalResult struct {
	Packets []Packet
	Store   *Store
}

// Eval runs the denotational semantics (Appendix A): policy × store ×
// packet → packets × new store. The input store is not modified.
func Eval(p Policy, st *Store, in Packet) (EvalResult, error) {
	r, err := semantics.Eval(p, st, in)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{Packets: r.Packets, Store: r.Store}, nil
}

// --- Topologies and traffic ---

// Campus returns the paper's Figure 2 running-example network.
func Campus(capacity float64) *Topology { return topo.Campus(capacity) }

// NamedTopology synthesizes a Table 5 evaluation topology ("Stanford",
// "Berkeley", "Purdue", "AS1755", "AS1221", "AS6461", "AS3257").
// portScale in (0, 1] trims the port count for faster runs.
func NamedTopology(name string, capacity, portScale float64) (*Topology, error) {
	return topo.Named(name, capacity, portScale)
}

// IGen synthesizes an IGen-style topology with n switches (§6.2).
func IGen(n int, capacity float64) *Topology { return topo.IGen(n, capacity) }

// CampusSwitchName names a switch of the Figure 2 campus topology
// (IDs outside the campus render as "S<n>").
func CampusSwitchName(n NodeID) string { return topo.CampusSwitchName(n) }

// NewTopology builds a custom topology.
func NewTopology(name string, switches int, links []Link, ports []Port) (*Topology, error) {
	return topo.New(name, switches, links, ports)
}

// Gravity synthesizes a gravity-model traffic matrix (Roughan [31]).
func Gravity(t *Topology, total float64, seed int64) TrafficMatrix {
	return traffic.Gravity(t, total, seed)
}

// UniformTraffic builds a matrix with equal demand on every pair.
func UniformTraffic(t *Topology, perPair float64) TrafficMatrix {
	return traffic.Uniform(t, perPair)
}

// --- Example applications (Table 3) ---

// Apps returns the catalogue of Table 3 applications.
func Apps() []App { return apps.All() }

// AppByName retrieves one catalogued application.
func AppByName(name string) (App, bool) { return apps.ByName(name) }

// DNSTunnelDetect returns the Figure 1 program.
func DNSTunnelDetect() Policy { return apps.DNSTunnelDetect() }

// AssignEgress returns the §2.1 forwarding policy for n subnet ports.
func AssignEgress(n int) Policy { return apps.AssignEgress(n) }

// Assumption returns the §4.3 ingress assumption for n subnet ports.
func Assumption(n int) Policy { return apps.Assumption(n) }

// Monitor returns the per-port monitor count[inport]++.
func Monitor() Policy { return apps.Monitor() }

// --- Extensions (§7.3) ---

// ShardPlan describes a state-sharding transformation (Appendix C): a
// variable dispatched on a packet field is split into independently
// placeable shards.
type ShardPlan = shard.Plan

// ShardByPorts plans sharding a variable by OBS ingress port.
func ShardByPorts(varName string, ports []int) ShardPlan {
	return shard.PortsPlan(varName, ports)
}

// ApplyShard rewrites a policy under a sharding plan; the result is
// observationally equivalent, with the shards jointly reconstructing the
// original array.
func ApplyShard(p Policy, plan ShardPlan) (Policy, error) {
	return shard.Apply(p, plan)
}
