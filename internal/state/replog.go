// The update log: the one replication record of the data plane, after
// "State-Compute Replication" (arXiv 2309.14647). Every state write a
// switch VM performs is observed as the operation that produced it — not
// its effect — and shipped to other copies of the table, which replay it
// against their own Replica. Two consumers read the log: the workers of
// the state-compute replication discipline, which each keep a private
// copy of every table instead of sharing one behind a lock, and the
// backup switches of the fault-tolerance mirrors, which trail each
// replicated variable's primary. One merge rule serves both:
//
//   - increments and decrements commute, so they are replayed verbatim on
//     every replica — any application order yields the same sums, exactly
//     the paper's commutative-update class;
//   - value assignments (s[idx] ← e) do not commute, so each carries a tag
//     and replicas keep last-writer-wins per (variable, key). The
//     replication workers stamp Lamport tags (logical clock in the high
//     bits, worker id in the low bits — a total order); applying a remote
//     update advances the local clock past its tag before the next local
//     write is stamped, so the tag order extends the causal order and
//     every replica ends on the value of the globally largest tag. A
//     lock-discipline primary stamps a sequence number instead, in table
//     order, so its backups end on the table's last write.
//
// The replication discipline restricts its log to operations expressible
// without allocation — inline index vector, scalar value — and the link
// step classifies exactly which programs stay inside that fragment
// (netasm.Linked.ReplicationBlockers). Mirrors also carry index tuples
// wider than values.MaxVec: only lock-discipline primaries write them,
// and their backups apply them in log order, which is table order.
package state

import (
	"sync/atomic"

	"snap/internal/values"
)

// UpdateAct is the operation kind of one logged write.
type UpdateAct uint8

const (
	UpdateSet  UpdateAct = iota // assign Val (last-writer-wins by Tag)
	UpdateIncr                  // re-execute ++ (commutative)
	UpdateDecr                  // re-execute -- (commutative)
)

// tagWorkerBits is the low-bit budget of a tag reserved for the worker id
// that stamped it, making tags from different workers never collide.
const tagWorkerBits = 16

// MakeTag stamps a logical clock reading with a worker id into one
// totally-ordered tag.
func MakeTag(clock uint64, worker int) uint64 {
	return clock<<tagWorkerBits | uint64(worker)&(1<<tagWorkerBits-1)
}

// TagClock recovers the logical-clock component of a tag.
func TagClock(tag uint64) uint64 { return tag >> tagWorkerBits }

// Update is one logged state write: the operation, not its effect, so
// commutative deltas merge by re-execution. It is a value type sized for
// ring-buffer transport — no pointers beyond those inside the values and
// the wide index.
type Update struct {
	VarID int32
	Act   UpdateAct
	Tag   uint64 // UpdateSet only: the writer's last-writer-wins tag
	Idx   values.Vec
	// IdxWide replaces Idx for index tuples wider than values.MaxVec: the
	// writing table's retained tuple, immutable.
	IdxWide values.Tuple
	Val     values.Value // UpdateSet only
}

// Replica is one copy of a plane's state — a replication worker's private
// tables, or a backup switch's — bound to dense tables by variable id. It
// tracks, per (variable, key), the largest set-tag applied so far — local
// writes are already in the tables when recorded, so Apply only ever
// filters remote sets that lost the last-writer race.
type Replica struct {
	tables []*Table
	tags   []map[Key]uint64
	// applied counts remote updates replayed against a bound table
	// (including sets filtered by last-writer-wins — they were still
	// processed). Atomic only for the telemetry scrape; the replica
	// itself is single-consumer.
	applied atomic.Int64
}

// NewReplica sizes a replica for a variable space of n ids.
func NewReplica(n int) *Replica {
	return &Replica{
		tables: make([]*Table, n),
		tags:   make([]map[Key]uint64, n),
	}
}

// Bind points variable id at its local table. Unbound ids ignore updates
// (they belong to no placed variable and can carry no entries).
func (r *Replica) Bind(id int, t *Table) {
	if id >= 0 && id < len(r.tables) {
		r.tables[id] = t
	}
}

// RecordLocal notes a set this worker just performed directly on its
// tables, so later remote sets with smaller tags cannot overwrite it.
func (r *Replica) RecordLocal(varID int32, k Key, tag uint64) {
	m := r.tags[varID]
	if m == nil {
		m = make(map[Key]uint64)
		r.tags[varID] = m
	}
	m[k] = tag
}

// Applied counts the remote updates this replica has replayed (its
// lifetime consumption of the peers' logs).
func (r *Replica) Applied() int64 { return r.applied.Load() }

// Apply replays one remote update against the replica: deltas re-execute
// unconditionally, sets apply only when their tag beats the largest tag
// this replica has seen for the key. Wide-index updates apply in log
// order (see the file comment).
func (r *Replica) Apply(u Update) {
	if int(u.VarID) >= len(r.tables) || u.VarID < 0 {
		return
	}
	tbl := r.tables[u.VarID]
	if tbl == nil {
		return
	}
	r.applied.Add(1)
	if u.IdxWide != nil {
		switch u.Act {
		case UpdateIncr:
			tbl.AddWide(u.IdxWide, 1)
		case UpdateDecr:
			tbl.AddWide(u.IdxWide, -1)
		case UpdateSet:
			tbl.SetWide(u.IdxWide, u.Val)
		}
		return
	}
	k := KeyOf(u.Idx)
	switch u.Act {
	case UpdateIncr:
		tbl.Add(k, u.Idx, 1)
	case UpdateDecr:
		tbl.Add(k, u.Idx, -1)
	case UpdateSet:
		m := r.tags[u.VarID]
		if m == nil {
			m = make(map[Key]uint64)
			r.tags[u.VarID] = m
		}
		if u.Tag > m[k] {
			m[k] = u.Tag
			tbl.Set(k, u.Idx, u.Val)
		}
	}
}
