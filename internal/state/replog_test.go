package state

import (
	"math/rand"
	"testing"

	"snap/internal/values"
)

func TestTagOrder(t *testing.T) {
	if got := TagClock(MakeTag(7, 3)); got != 7 {
		t.Fatalf("TagClock(MakeTag(7,3)) = %d", got)
	}
	// Clock dominates worker id: a later clock from any worker outranks an
	// earlier clock from every worker.
	if MakeTag(2, 0) <= MakeTag(1, 1<<tagWorkerBits-1) {
		t.Fatal("higher clock does not outrank lower clock with max worker")
	}
	// Same clock: worker id breaks the tie, so tags are a total order.
	if MakeTag(5, 1) == MakeTag(5, 2) {
		t.Fatal("tags from different workers collide at equal clocks")
	}
}

// makeReplica builds a replica with one bound variable (id 0) backed by a
// fresh table.
func makeReplica() (*Replica, *Table) {
	tbl := &Table{}
	r := NewReplica(1)
	r.Bind(0, tbl)
	return r, tbl
}

// TestReplicaDeltasCommute: any application order of a mix of increments
// and decrements yields the same sums.
func TestReplicaDeltasCommute(t *testing.T) {
	var log []Update
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		act := UpdateIncr
		if rng.Intn(3) == 0 {
			act = UpdateDecr
		}
		log = append(log, Update{VarID: 0, Act: act, Idx: vec(values.Int(int64(rng.Intn(5))))})
	}
	ref, refTbl := makeReplica()
	for _, u := range log {
		ref.Apply(u)
	}
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(log))
		r, tbl := makeReplica()
		for _, i := range perm {
			r.Apply(log[i])
		}
		if !tbl.Equal(refTbl) {
			t.Fatalf("trial %d: shuffled delta log diverged from in-order replay", trial)
		}
	}
	_ = ref
}

// TestReplicaSetLastWriterWins: sets converge to the largest tag regardless
// of application order, and a smaller remote tag never overwrites a
// recorded local write.
func TestReplicaSetLastWriterWins(t *testing.T) {
	idx := vec(values.Int(1))
	k := KeyOf(idx)
	set := func(clock uint64, worker int, v int64) Update {
		return Update{VarID: 0, Act: UpdateSet, Tag: MakeTag(clock, worker), Idx: idx, Val: values.Int(v)}
	}
	log := []Update{set(1, 0, 10), set(2, 1, 20), set(2, 3, 23), set(3, 0, 30)}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		r, tbl := makeReplica()
		for _, i := range rng.Perm(len(log)) {
			r.Apply(log[i])
		}
		if got := tbl.Get(k); !values.Eq(got, values.Int(30)) {
			t.Fatalf("trial %d: converged to %v, want 30 (largest tag)", trial, got)
		}
	}

	// Local write at clock 5: an already-shipped remote set with a smaller
	// tag must not clobber it on arrival.
	r, tbl := makeReplica()
	tbl.Set(k, idx, values.Int(50))
	r.RecordLocal(0, k, MakeTag(5, 2))
	r.Apply(set(3, 0, 30))
	if got := tbl.Get(k); !values.Eq(got, values.Int(50)) {
		t.Fatalf("stale remote set overwrote newer local write: %v", got)
	}
	r.Apply(set(6, 0, 60))
	if got := tbl.Get(k); !values.Eq(got, values.Int(60)) {
		t.Fatalf("newer remote set did not apply: %v", got)
	}
}

// TestReplicaIgnoresUnbound: updates for unknown or unbound variable ids
// are dropped rather than crashing.
func TestReplicaIgnoresUnbound(t *testing.T) {
	r := NewReplica(1)
	r.Apply(Update{VarID: 0, Act: UpdateIncr, Idx: vec(values.Int(0))}) // bound slot, nil table
	r.Apply(Update{VarID: 9, Act: UpdateIncr, Idx: vec(values.Int(0))}) // out of range
	r.Apply(Update{VarID: -1, Act: UpdateIncr, Idx: vec(values.Int(0))})
}

func TestTryLock(t *testing.T) {
	s := NewStripes(4)
	a := s.LockSet([]string{"x", "y"})
	b := s.LockSet([]string{"y", "z"})
	if !a.TryLock() {
		t.Fatal("TryLock on free stripes failed")
	}
	// b overlaps a on y's stripe: must fail and back out anything it took.
	if b.TryLock() {
		t.Fatal("TryLock succeeded on held stripe")
	}
	a.Unlock()
	// The failed attempt must have released its partial acquisitions.
	if !b.TryLock() {
		t.Fatal("TryLock failed after contender unlocked — partial acquisition leaked")
	}
	b.Unlock()
	empty := s.LockSet(nil)
	if !empty.TryLock() {
		t.Fatal("TryLock on empty set failed")
	}
}

// TestReplicaWideIndexLogOrder: updates indexed wider than values.MaxVec
// take the overflow map and apply in log order — a set then an increment
// at the same wide key ends on set+1, and the table keeps its own copy of
// the index.
func TestReplicaWideIndexLogOrder(t *testing.T) {
	wide := values.Tuple{values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(5)}
	r, tbl := makeReplica()
	r.Apply(Update{VarID: 0, Act: UpdateSet, IdxWide: wide, Val: values.Int(10)})
	r.Apply(Update{VarID: 0, Act: UpdateIncr, IdxWide: wide})
	r.Apply(Update{VarID: 0, Act: UpdateDecr, IdxWide: wide})
	r.Apply(Update{VarID: 0, Act: UpdateIncr, IdxWide: wide})
	if got := tbl.GetWide(wide); !values.Eq(got, values.Int(11)) {
		t.Fatalf("wide entry = %v, want 11", got)
	}
	wide[0] = values.Int(9)
	if es := tbl.Entries(); len(es) != 1 || !values.Eq(es[0].Idx[0], values.Int(1)) {
		t.Fatalf("table shares the update's index tuple: %+v", es)
	}
}
