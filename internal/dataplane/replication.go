// Asynchronous state replication: the runtime half of the compiler's
// replication-aware placement (place.Options.Replicas). Backup switches
// are one more consumer of the update log (state.Update): every write to
// a replicated variable is appended to its primary switch's mirror queue,
// and a single background goroutine applies the queues to the backups'
// dense tables in batches, off the packet hot path, with the same
// state.Replica.Apply the replication workers merge with. On a lock plane
// the primary's write hook appends under the variable's stripe lock and
// stamps sets with a queue sequence number, so last-writer-wins follows
// table order; on a replication plane (scr.go) each worker appends its
// packet's log at publish, Lamport tags included.
//
// The backups trail the primaries by a bounded, measurable lag
// (ReplicaStats): exactly the records still queued. A switch failure
// discards the victim's queue — those writes are the bounded state loss a
// failover reports — while everything already applied survives on the
// backups and is promoted by Engine.Failover.
package dataplane

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/faultpoint"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/telemetry"
	"snap/internal/topo"
)

// repBuffer is one primary switch's mirror queue, double-buffered so the
// steady state allocates nothing: the drain swaps ws for spare. seq is
// the lock plane's set tag. dead marks a failed switch: its queued (and
// any still-arriving) records are discarded and counted as lost.
type repBuffer struct {
	mu    sync.Mutex
	dead  bool
	seq   uint64
	ws    []state.Update
	spare []state.Update // drain-owned (drainMu)
}

// backup is one backup switch's tables, bound into a replica by var id.
type backup struct {
	rep    *state.Replica
	tables map[string]*state.Table
}

// replicator owns the mirror pipeline for one configuration epoch. The
// engine swaps it wholesale on reconfiguration (under the gate, after a
// flush), so its maps and slices are immutable after construction. All
// methods are nil-receiver-safe: an unreplicated configuration has a nil
// replicator.
type replicator struct {
	eng     *Engine
	vars    map[string][]topo.NodeID // replicated var → backups, preference order
	backups map[topo.NodeID]*backup
	pending map[topo.NodeID]*repBuffer // per-primary mirror queues
	// Per-record lookups by variable id: the primary's queue (nil when
	// unreplicated) and the backups' replicas.
	queues []*repBuffer
	fanout [][]*state.Replica

	// enq/app count records enqueued and applied; their difference is the
	// replica lag. They are atomics because enq sits on the packet hot
	// path. drainMu serializes the background drain with flush.
	enq     atomic.Int64
	app     atomic.Int64
	drainMu sync.Mutex

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// newReplicator builds the pipeline for a configuration, or nil when it
// carries no replicas.
func newReplicator(e *Engine, cfg *rules.Config) *replicator {
	if len(cfg.Replicas) == 0 {
		return nil
	}
	vs := cfg.VarSpace()
	r := &replicator{
		eng:     e,
		vars:    cfg.Replicas,
		backups: map[topo.NodeID]*backup{},
		pending: map[topo.NodeID]*repBuffer{},
		queues:  make([]*repBuffer, vs.Len()),
		fanout:  make([][]*state.Replica, vs.Len()),
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for v, backups := range cfg.Replicas {
		owner, ok := cfg.Placement[v]
		id := vs.ID(v)
		if !ok || id < 0 {
			continue
		}
		if r.pending[owner] == nil {
			r.pending[owner] = &repBuffer{}
		}
		r.queues[id] = r.pending[owner]
		for _, b := range backups {
			bk := r.backups[b]
			if bk == nil {
				bk = &backup{rep: state.NewReplica(vs.Len()), tables: map[string]*state.Table{}}
				r.backups[b] = bk
			}
			bk.tables[v] = &state.Table{}
			bk.rep.Bind(id, bk.tables[v])
			r.fanout[id] = append(r.fanout[id], bk.rep)
		}
	}
	return r
}

// publish enqueues a replication worker's packet log, tags as stamped.
func (r *replicator) publish(log []state.Update) {
	if r == nil {
		return
	}
	for _, u := range log {
		r.enqueue(u, false)
	}
}

// enqueue appends a record for a replicated variable to its primary's
// queue (a dead primary's records are counted lost instead) and kicks the
// drainer. stamp is set by the lock plane's write hook, which runs under
// the variable's stripe lock, so the tags it stamps on sets follow table
// order.
func (r *replicator) enqueue(u state.Update, stamp bool) {
	buf := r.queues[u.VarID]
	if buf == nil {
		return
	}
	buf.mu.Lock()
	if buf.dead {
		r.eng.repLost.Add(1)
	} else {
		if stamp && u.Act == state.UpdateSet {
			buf.seq++
			u.Tag = buf.seq
		}
		buf.ws = append(buf.ws, u)
		r.enq.Add(1)
	}
	buf.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// start launches the background drain goroutine.
func (r *replicator) start() {
	if r == nil {
		return
	}
	go func() {
		defer close(r.done)
		for {
			select {
			case <-r.quit:
				return
			case <-r.kick:
				r.drainGuarded()
			}
		}
	}()
}

// stop terminates the drain goroutine without flushing: the engine flushes
// explicitly (under the gate) before swapping replicators.
func (r *replicator) stop() {
	if r == nil {
		return
	}
	close(r.quit)
	<-r.done
}

// drainGuarded is the background drainer's panic envelope: a panic while
// applying mirror records is contained — counted and span-logged on the
// engine — and the drain loop survives to serve the next kick, instead of
// one poisoned record silently killing replication for the rest of the
// process. Records of the aborted pass that were already swapped out of
// their buffers never reach the backups; they stay visible as residual
// lag (enqueued − applied), which is the honest signal — the backups
// really are behind by exactly those writes.
func (r *replicator) drainGuarded() {
	defer func() {
		if v := recover(); v != nil {
			r.eng.stats.containedPanics.Add(1)
			r.eng.tel.Spans.Record(telemetry.Span{
				Kind:     "panic",
				Scenario: "replicator.drain",
				Detail:   fmt.Sprintf("%v\n%s", v, debug.Stack()),
				Start:    time.Now(),
			})
		}
	}()
	r.flush()
}

// flush applies every queued mirror record to the backups; after it
// returns (and absent new traffic) the backups are quiescent: lag zero.
// Buffers are swapped out under their own lock and applied outside it,
// so primary writers are blocked only for the swap. The replicator.drain
// fault point sits before the mutex: armed as a stall it parks the
// background drainer right here (records pile up at the primaries,
// measurably, until the point is disabled); armed as an error it skips
// the round, leaving the queues for the next kick or flush.
func (r *replicator) flush() {
	if r == nil {
		return
	}
	if err := faultpoint.Hit(faultpoint.ReplicatorDrain); err != nil {
		return
	}
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	applied := 0
	for _, buf := range r.pending {
		buf.mu.Lock()
		us := buf.ws
		buf.ws, buf.spare = buf.spare, nil
		buf.mu.Unlock()
		for _, u := range us {
			for _, rep := range r.fanout[u.VarID] {
				rep.Apply(u)
			}
		}
		applied += len(us)
		clear(us)
		buf.spare = us[:0]
	}
	if applied > 0 {
		r.app.Add(int64(applied))
	}
}

// seed copies each backup table from its variable's primary on a freshly
// seeded plane, when a new replicator is installed mid-life
// (reconfiguration, failover), so backups do not start cold behind a
// populated primary.
func (r *replicator) seed(pl *plane) {
	if r == nil {
		return
	}
	for _, bk := range r.backups {
		for v, tbl := range bk.tables {
			if src, ok := pl.switches[pl.cfg.Placement[v]].TableRef(v); ok {
				tbl.CopyFrom(src)
			}
		}
	}
}

// condemn discards the mirror queue of a failed switch, returning the
// number of records lost (the replica-lag loss), and marks the buffer dead
// so concurrent in-flight records are discarded too.
func (r *replicator) condemn(node topo.NodeID) int64 {
	if r == nil {
		return 0
	}
	buf, ok := r.pending[node]
	if !ok {
		return 0
	}
	buf.mu.Lock()
	lost := int64(len(buf.ws))
	buf.ws = nil
	buf.dead = true
	buf.mu.Unlock()
	if lost > 0 {
		// The discarded records will never be applied; account them so
		// lag (enqueued - applied) returns to zero.
		r.app.Add(lost)
	}
	return lost
}

// aliveReplica returns v's table on the first alive backup in
// promotion-preference order, or nil. Caller holds the engine quiescent.
func (r *replicator) aliveReplica(v string) *state.Table {
	if r == nil {
		return nil
	}
	for _, b := range r.vars[v] {
		if !r.eng.down[b].Load() {
			return r.backups[b].tables[v]
		}
	}
	return nil
}

// queueDepth counts mirror records currently queued at the primaries,
// awaiting the drain — the telemetry scrape's live backlog gauge. Each
// buffer is locked only for a length read, so primary writers stall no
// longer than they do for an append.
func (r *replicator) queueDepth() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, buf := range r.pending {
		buf.mu.Lock()
		n += int64(len(buf.ws))
		buf.mu.Unlock()
	}
	return n
}

// lag returns enqueued/applied counters.
func (r *replicator) lag() (enq, app int64) {
	if r == nil {
		return 0, 0
	}
	return r.enq.Load(), r.app.Load()
}

// ReplicaStats reports the replication pipeline's progress for the current
// configuration epoch.
type ReplicaStats struct {
	// Enqueued and Applied count mirror writes since the epoch started;
	// Lag = Enqueued - Applied is how far the replicas trail the
	// primaries (0 = quiescent).
	Enqueued int64
	Applied  int64
	Lag      int64
	// LostWrites counts mirror writes discarded by switch failures over
	// the engine's whole life — the replica-lag state loss failover
	// reports.
	LostWrites int64
}

// ReplicaStats snapshots the replication pipeline. Zero-valued when the
// running configuration has no replicas.
func (e *Engine) ReplicaStats() ReplicaStats {
	enq, app := e.replicator().lag()
	return ReplicaStats{
		Enqueued:   enq,
		Applied:    app,
		Lag:        enq - app,
		LostWrites: e.repLost.Load(),
	}
}

// FlushReplication drains the mirror queues to the backup tables under
// the admission gate, returning with the backups quiescent (lag zero).
// The failover demo and tests use it to establish the "replicas are
// quiescent" precondition for zero-loss recovery; production callers can
// treat it as a barrier before planned maintenance.
func (e *Engine) FlushReplication() {
	e.gate.pause()
	defer e.gate.resume()
	e.replicator().flush()
}

// ReplicaTable snapshots the tables a backup switch holds as a Store
// (tests and diagnostics); nil when the switch backs up nothing. Taken
// under the gate after a flush, so it reflects every write admitted so far.
func (e *Engine) ReplicaTable(id topo.NodeID) *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	r := e.replicator()
	r.flush()
	if r == nil || r.backups[id] == nil {
		return nil
	}
	return storeView(r.backups[id].tables)
}
