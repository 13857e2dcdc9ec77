// State-compute replication: the engine's second concurrency discipline
// (after "State-Compute Replication", arXiv 2309.14647), selected per
// plane at link time when Options.StateReplication is set and the plane
// classifies replication-safe.
//
// Under the lock discipline (engine.go), one hot variable serializes every
// worker behind the same stripe — placement puts each variable on exactly
// one switch, so an unshardable count[inport] makes the whole engine
// effectively single-threaded. This file replicates the state *computation*
// instead of sharing the state: each worker owns a private replica of
// every switch VM (and therefore of every state table), runs injected
// packets end-to-end against it with no locks at all, and appends its
// state writes to a compact update log (state.Update) that per-worker-pair
// SPSC ring buffers carry to the other workers. Each worker drains its
// inbound rings before running the next packet, re-executing commutative
// deltas and applying tag-ordered last-writer-wins sets (state.Replica),
// so all replicas converge to the same tables once the logs drain — the
// paper's packet-history ordering, with Lamport tags standing in for the
// shared sequencer.
//
// Equivalence with the specification: a worker publishes its packet's log
// before the injection retires, and drains before the next packet runs,
// so with one packet in flight at a time the replicated plane is
// lockstep-identical to the one-big-switch semantics for any
// replication-safe program (the equivalence suite asserts exactly this).
// Under concurrency, packets in flight on different workers may read
// replicas that lag each other's unpublished writes — the paper's
// documented commutativity window; sums of deltas are nevertheless exact,
// and the convergence audit (AuditReplicas) checks all replicas agree at
// quiescence.
//
// Backups: when the configuration mirrors state for fault tolerance
// (replication.go), publish also appends the packet's log entries for
// replicated variables to the owning primary's mirror queue, so the
// backup switches merge the very records the workers do.
//
// What stays shared: no state table. The worker pool with its job queue
// and packet walk, the admission gate, window, stats and observation
// shards are the engine's own (engine.go), identical under both
// disciplines. The control plane (Snapshot, ApplyConfig, Failover, Load)
// always runs under the gate with the engine quiescent; reconcile() drains
// the rings there, so worker 0's replica — which doubles as
// plane.switches — is the canonical Store every control-plane reader sees.
package dataplane

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"snap/internal/netasm"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/topo"
)

// ExecMode identifies the concurrency discipline a plane runs under.
type ExecMode uint8

const (
	// ModeLocks is the striped-lock discipline: one set of switch VMs,
	// per-variable stripe locks serializing conflicting visits.
	ModeLocks ExecMode = iota
	// ModeReplication is the state-compute replication discipline: one
	// replica of all switch VMs per worker, no locks, update-log merge.
	ModeReplication
)

func (m ExecMode) String() string {
	if m == ModeReplication {
		return "replication"
	}
	return "locks"
}

// maxSCRWorkers bounds worker ids to the tag's worker-id field.
const maxSCRWorkers = 1 << 16

// replicationBlockers decides whether a plane may run the replication
// discipline, returning the reasons it may not (empty = safe). Sources:
//
//   - per-program blockers from the link step (wide-index writes,
//     non-scalar set values, touches of unowned or unplaced variables);
//   - plane-wide act mixing: a variable written by ActSet on one program
//     and ++/-- on another (or the same) cannot merge — last-writer-wins
//     would drop deltas and re-execution would misorder sets.
func replicationBlockers(linked map[topo.NodeID]*netasm.Linked, workers int) []string {
	var reasons []string
	if workers > maxSCRWorkers {
		reasons = append(reasons, fmt.Sprintf("%d workers exceed the update-tag worker-id space (%d)", workers, maxSCRWorkers))
	}
	// Group switches by linked image so each distinct program reports once.
	byProg := make(map[*netasm.Linked][]topo.NodeID)
	for id, lp := range linked {
		byProg[lp] = append(byProg[lp], id)
	}
	acts := map[string]uint8{}
	var progReasons []string
	for lp, ids := range byProg {
		for v, mask := range lp.WriteActs() {
			acts[v] |= mask
		}
		if blocks := lp.ReplicationBlockers(); len(blocks) > 0 {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			progReasons = append(progReasons, fmt.Sprintf("program of switch %s: %s",
				nodeList(ids), strings.Join(blocks, "; ")))
		}
	}
	sort.Strings(progReasons)
	reasons = append(reasons, progReasons...)
	mixed := make([]string, 0)
	for v, mask := range acts {
		if mask == netasm.WActSet|netasm.WActDelta {
			mixed = append(mixed, v)
		}
	}
	if len(mixed) > 0 {
		sort.Strings(mixed)
		reasons = append(reasons, fmt.Sprintf("variable(s) %s mix assignment with ++/-- across the plane; no merge order reconciles both", strings.Join(mixed, ", ")))
	}
	return reasons
}

func nodeList(ids []topo.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ",")
}

// collectDiags gathers link-time diagnostics across a plane's programs,
// prefixed with the switches sharing each program (satisfying the
// "once per program" contract even though many switches run it).
func collectDiags(linked map[topo.NodeID]*netasm.Linked) []string {
	byProg := make(map[*netasm.Linked][]topo.NodeID)
	for id, lp := range linked {
		byProg[lp] = append(byProg[lp], id)
	}
	var out []string
	for lp, ids := range byProg {
		diags := lp.Diagnostics()
		if len(diags) == 0 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, d := range diags {
			out = append(out, fmt.Sprintf("program of switch %s: %s", nodeList(ids), d))
		}
	}
	sort.Strings(out)
	return out
}

// LinkDiagnostics links a configuration's programs and returns the plane's
// link-time diagnostics without building an engine (snapsim -v, tooling).
func LinkDiagnostics(cfg *rules.Config) []string {
	return collectDiags(linkPrograms(cfg))
}

// updateRing is a bounded single-producer single-consumer queue of state
// updates: one per ordered worker pair, so push and pop each have exactly
// one caller and the only shared words are the head and tail indices.
type updateRing struct {
	buf  []state.Update
	_    [8]uint64     // keep head and tail off the buffer's cache line
	head atomic.Uint64 // next slot to pop (consumer-owned)
	_    [8]uint64
	tail atomic.Uint64 // next slot to push (producer-owned)
}

func newUpdateRing(capacity int) *updateRing {
	return &updateRing{buf: make([]state.Update, capacity)}
}

// push appends one update; false when the ring is full (the producer must
// drain its own inbound rings and retry, see publish).
func (r *updateRing) push(u state.Update) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t%uint64(len(r.buf))] = u
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest update; false when the ring is empty.
func (r *updateRing) pop() (state.Update, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return state.Update{}, false
	}
	u := r.buf[h%uint64(len(r.buf))]
	r.head.Store(h + 1)
	return u, true
}

// replica is one worker's share of a replication-mode plane: a full
// private copy of the plane's switch VMs (and so of all state tables), a
// Lamport clock, the per-packet update log, and the rings connecting it to
// its peers. Only its own worker touches it while traffic runs.
type replica struct {
	id int
	// switches is this worker's replica of every switch VM; worker 0's map
	// doubles as plane.switches, the canonical copy the control plane reads.
	switches map[topo.NodeID]*netasm.Switch
	rep      *state.Replica
	clock    uint64
	log      []state.Update
	rings    []*updateRing // inbound, indexed by producer worker (nil self)
	outs     []*updateRing // outbound, indexed by consumer worker (nil self)
	// mirror is the epoch's backup pipeline (nil when unreplicated):
	// publish hands it the log entries of replicated variables.
	mirror *replicator
	// kicks wake the consumer workers: a publisher that finds an outbound
	// ring full kicks its consumer, which may be parked with no traffic of
	// its own — without it, an idle consumer would deadlock a
	// backpressured publisher at end of stream.
	kicks []chan struct{}

	// published counts update-log entries this replica has shipped to its
	// peers (each entry once, however many peers receive it); atomic so
	// the telemetry scrape can read it against live traffic.
	published atomic.Int64
}

// scrState is the replication-mode half of a plane: one replica per
// worker.
type scrState struct {
	replicas []*replica
}

// ringOccupancy sums the updates currently queued across every
// worker-pair ring. It reads only the rings' atomic head/tail indices, so
// it is safe against live traffic (the telemetry scrape calls it) and
// nil-receiver safe (lock-mode planes have no scrState).
func (s *scrState) ringOccupancy() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, rp := range s.replicas {
		for _, r := range rp.rings {
			if r == nil {
				continue
			}
			n += int64(r.tail.Load() - r.head.Load())
		}
	}
	return n
}

// updateCounts sums the workers' lifetime update-log counters: published
// counts each logged entry once, applied counts each remote application
// (≈ published × (workers−1) at quiescence). Nil-receiver safe.
func (s *scrState) updateCounts() (published, applied int64) {
	if s == nil {
		return 0, 0
	}
	for _, r := range s.replicas {
		published += r.published.Load()
		applied += r.rep.Applied()
	}
	return published, applied
}

// buildSCR constructs the per-worker replicas for a classified-safe
// plane, wired to the engine's workers for backpressure kicks and to the
// epoch's mirror pipeline.
func (e *Engine) buildSCR(cfg *rules.Config, linked map[topo.NodeID]*netasm.Linked, mirror *replicator) *scrState {
	n := len(e.workers)
	s := &scrState{replicas: make([]*replica, n)}
	kicks := make([]chan struct{}, n)
	for i, w := range e.workers {
		kicks[i] = w.kick
	}
	vs := cfg.VarSpace()
	for w := 0; w < n; w++ {
		r := &replica{
			id:       w,
			switches: make(map[topo.NodeID]*netasm.Switch, len(cfg.Switches)),
			rep:      state.NewReplica(vs.Len()),
			rings:    make([]*updateRing, n),
			outs:     make([]*updateRing, n),
			kicks:    kicks,
			mirror:   mirror,
		}
		for id := range cfg.Switches {
			sw := netasm.NewLinkedSwitch(int(id), linked[id])
			sw.OnStateOp = r.onStateOp
			r.switches[id] = sw
		}
		for v, owner := range cfg.Placement {
			if tbl, ok := r.switches[owner].TableRef(v); ok {
				r.rep.Bind(vs.ID(v), tbl)
			}
		}
		s.replicas[w] = r
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			ring := newUpdateRing(e.opts.ReplicationRing)
			s.replicas[src].outs[dst] = ring
			s.replicas[dst].rings[src] = ring
		}
	}
	return s
}

// onStateOp is the VM write observer: record the operation in the
// per-packet log. Sets advance the Lamport clock and pre-record their tag
// locally so a remote set with a smaller tag cannot later overwrite them.
func (r *replica) onStateOp(u state.Update) {
	if u.Act == state.UpdateSet {
		r.clock++
		u.Tag = state.MakeTag(r.clock, r.id)
		r.rep.RecordLocal(u.VarID, state.KeyOf(u.Idx), u.Tag)
	}
	r.log = append(r.log, u)
}

// drain applies every queued remote update, advancing the Lamport clock
// past the largest set-tag seen so the next local set outranks it.
func (r *replica) drain() {
	for _, ring := range r.rings {
		if ring == nil {
			continue
		}
		for {
			u, ok := ring.pop()
			if !ok {
				break
			}
			if c := state.TagClock(u.Tag); c > r.clock {
				r.clock = c
			}
			r.rep.Apply(u)
		}
	}
}

// publish ships the packet's update log to the backups' mirror queues and
// to every peer. A full outbound ring means the consumer is behind: kick
// it (in case it is parked with no traffic of its own) and drain our own
// inbound rings while spinning, so a cycle of workers publishing at each
// other always makes progress — someone's consumer pops, its publisher
// completes, and the cycle unwinds.
func (r *replica) publish() {
	if len(r.log) == 0 {
		return
	}
	r.mirror.publish(r.log)
	for dst, ring := range r.outs {
		if ring == nil {
			continue
		}
		for _, u := range r.log {
			for !ring.push(u) {
				select {
				case r.kicks[dst] <- struct{}{}:
				default:
				}
				r.drain()
				runtime.Gosched()
			}
		}
	}
	r.published.Add(int64(len(r.log)))
	r.log = r.log[:0]
}

// reconcile converges every worker replica by asking each pool goroutine
// to drain its own rings (keeping the rings single-consumer) and waiting
// for the acknowledgement. Callers hold the engine quiescent (the gate is
// paused), so all logs are fully published, the workers are idle and
// service the request immediately, and one pass converges every replica —
// in particular worker 0's, which the control-plane readers treat as the
// canonical state. The ack channel also orders the workers' table writes
// before the caller's reads. A single-worker engine has no rings and no
// pool goroutine, so there is nothing to converge.
func (e *Engine) reconcile(pl *plane) {
	if pl.scr == nil || e.jobs == nil {
		return
	}
	for _, w := range e.workers {
		ack := make(chan struct{})
		w.sync <- ack
		<-ack
	}
}

// audit verifies all worker replicas hold equal tables for every placed
// variable. Meaningful only after reconcile (at quiescence).
func (s *scrState) audit(cfg *rules.Config) error {
	vars := make([]string, 0, len(cfg.Placement))
	for v := range cfg.Placement {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	r0 := s.replicas[0]
	for _, r := range s.replicas[1:] {
		for _, v := range vars {
			owner := cfg.Placement[v]
			a, okA := r0.switches[owner].TableRef(v)
			b, okB := r.switches[owner].TableRef(v)
			if !okA || !okB {
				continue
			}
			if !a.Equal(b) {
				return fmt.Errorf("dataplane: replica divergence on %s: worker %d disagrees with worker 0", v, r.id)
			}
		}
	}
	return nil
}

// ExecMode reports the concurrency discipline of the current plane epoch.
func (e *Engine) ExecMode() ExecMode { return e.plane.Load().mode }

// ReplicationFallback returns why the current plane refused the
// replication discipline: empty when it is running replication, or when
// Options.StateReplication was never requested.
func (e *Engine) ReplicationFallback() []string {
	return append([]string(nil), e.plane.Load().repFallback...)
}

// LinkDiagnostics returns the current plane's link-time diagnostics
// (interpreter-fallback advisories and, when relevant, the replication
// fallback note).
func (e *Engine) LinkDiagnostics() []string {
	return append([]string(nil), e.plane.Load().diags...)
}

// AuditReplicas verifies that all worker replicas have converged to equal
// tables, after pausing admission and draining the update rings. On a
// lock-mode plane it trivially succeeds (there is one copy of the state).
func (e *Engine) AuditReplicas() error {
	e.gate.pause()
	defer e.gate.resume()
	pl := e.plane.Load()
	if pl.scr == nil {
		return nil
	}
	e.reconcile(pl)
	return pl.scr.audit(pl.cfg)
}
