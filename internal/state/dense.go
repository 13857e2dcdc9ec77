// Dense fast-path state tables for the compiled data plane.
//
// The canonical Store (store.go) keys entries by the Tuple.Key() string —
// the right format for the control plane, where snapshots, migrations and
// shard merges want stable, order-able, human-auditable keys, but a per-
// packet tax on the data plane: every Get/Set builds a fresh key string.
// Table is the runtime representation the linked NetASM VM uses instead:
// one table per state variable, keyed by a fixed-size comparable Key whose
// elements are canonicalized values (values.Canon), so a lookup is a single
// Go map access with zero allocations and the same collision classes as
// the string encoding (two tuples share a Key iff their Tuple.Key()s are
// equal).
//
// Index tuples wider than values.MaxVec — legal in the language, absent
// from every example policy — take a string-keyed overflow map, keeping
// the fast path honest without losing generality.
//
// Tables convert losslessly to and from Store: each entry retains the raw
// (uncanonicalized) index tuple it was first written with, exactly like
// Store entries do, so dumps, replication reseeding and shard.Merge see
// the same bindings whichever representation the runtime used.
package state

import (
	"maps"
	"sort"

	"snap/internal/values"
)

// Key is the comparable fast-path index of one state entry: the index
// tuple, canonicalized element-wise so that == coincides with the
// semantic tuple equality the string keys encode.
type Key struct {
	n uint8
	a [values.MaxVec]values.Value
}

// KeyOf canonicalizes an inline vector into a map key.
func KeyOf(v values.Vec) Key {
	var k Key
	k.n = uint8(v.Len())
	for i := 0; i < v.Len(); i++ {
		k.a[i] = values.Canon(v.At(i))
	}
	return k
}

// KeyOfTuple is KeyOf for slice tuples; ok is false when the tuple is too
// wide for the fast path.
func KeyOfTuple(t values.Tuple) (Key, bool) {
	v, ok := values.VecOf(t)
	if !ok {
		return Key{}, false
	}
	return KeyOf(v), true
}

// Table is the dense table of one state variable. The zero value is an
// empty table ready to use.
type Table struct {
	m    map[Key]Entry
	wide map[string]Entry // index arity > values.MaxVec
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.m) + len(t.wide) }

// Get reads the entry at k, Default when absent.
func (t *Table) Get(k Key) values.Value {
	if e, ok := t.m[k]; ok {
		return e.Val
	}
	return Default
}

// Set writes v at k, retaining raw as the entry's index tuple on first
// insert (overwrites keep the original tuple — same policy as Store.Set,
// one clone per entry lifetime, not per write). It returns the retained
// tuple.
func (t *Table) Set(k Key, raw values.Vec, v values.Value) values.Tuple {
	if e, ok := t.m[k]; ok {
		e.Val = v
		t.m[k] = e
		return e.Idx
	}
	if t.m == nil {
		t.m = make(map[Key]Entry)
	}
	idx := raw.Tuple()
	t.m[k] = Entry{Idx: idx, Val: v}
	return idx
}

// Add applies the ++/-- delta at k (coercing the current value like
// Store.Add) in one lookup-and-store, returning the retained index tuple
// and the post-write value.
func (t *Table) Add(k Key, raw values.Vec, delta int64) (values.Tuple, values.Value) {
	if e, ok := t.m[k]; ok {
		e.Val = values.Int(e.Val.AsInt() + delta)
		t.m[k] = e
		return e.Idx, e.Val
	}
	if t.m == nil {
		t.m = make(map[Key]Entry)
	}
	idx := raw.Tuple()
	val := values.Int(Default.AsInt() + delta)
	t.m[k] = Entry{Idx: idx, Val: val}
	return idx, val
}

// GetWide / SetWide / AddWide are the overflow path for index tuples wider
// than values.MaxVec, keyed by the canonical string encoding.

// GetWide reads the wide entry at idx, Default when absent.
func (t *Table) GetWide(idx values.Tuple) values.Value {
	if e, ok := t.wide[idx.Key()]; ok {
		return e.Val
	}
	return Default
}

// SetWide writes v at a wide index, cloning idx only on first insert, and
// returns the retained tuple (the write observer's stable index).
func (t *Table) SetWide(idx values.Tuple, v values.Value) values.Tuple {
	k := idx.Key()
	if e, ok := t.wide[k]; ok {
		e.Val = v
		t.wide[k] = e
		return e.Idx
	}
	if t.wide == nil {
		t.wide = make(map[string]Entry)
	}
	kept := append(values.Tuple(nil), idx...)
	t.wide[k] = Entry{Idx: kept, Val: v}
	return kept
}

// AddWide applies a delta at a wide index, returning the retained tuple.
func (t *Table) AddWide(idx values.Tuple, delta int64) values.Tuple {
	k := idx.Key()
	if e, ok := t.wide[k]; ok {
		e.Val = values.Int(e.Val.AsInt() + delta)
		t.wide[k] = e
		return e.Idx
	}
	if t.wide == nil {
		t.wide = make(map[string]Entry)
	}
	kept := append(values.Tuple(nil), idx...)
	t.wide[k] = Entry{Idx: kept, Val: values.Int(Default.AsInt() + delta)}
	return kept
}

// GetTuple dispatches a slice-tuple read to the right map (control-plane
// convenience; the VM uses Get/GetWide directly).
func (t *Table) GetTuple(idx values.Tuple) values.Value {
	if k, ok := KeyOfTuple(idx); ok {
		return t.Get(k)
	}
	return t.GetWide(idx)
}

// SetTuple dispatches a slice-tuple write (control-plane convenience).
func (t *Table) SetTuple(idx values.Tuple, v values.Value) values.Tuple {
	if k, ok := KeyOfTuple(idx); ok {
		raw, _ := values.VecOf(idx)
		return t.Set(k, raw, v)
	}
	return t.SetWide(idx, v)
}

// Equal reports whether two tables hold semantically equal bindings: the
// same keys mapping to Eq-equal values. Retained raw index tuples are not
// compared — two tables first written with False and 0 at the same key are
// equal, exactly as their string-keyed Store dumps would be. This is the
// convergence audit of the replication discipline: after all update logs
// drain, every worker replica must be Equal to every other.
func (t *Table) Equal(o *Table) bool {
	if len(t.m) != len(o.m) || len(t.wide) != len(o.wide) {
		return false
	}
	for k, e := range t.m {
		oe, ok := o.m[k]
		if !ok || !values.Eq(e.Val, oe.Val) {
			return false
		}
	}
	for k, e := range t.wide {
		oe, ok := o.wide[k]
		if !ok || !values.Eq(e.Val, oe.Val) {
			return false
		}
	}
	return true
}

// Entries returns the table's bindings sorted by canonical index key,
// matching Store.Entries order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	for _, e := range t.m {
		out = append(out, e)
	}
	for _, e := range t.wide {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx.Key() < out[j].Idx.Key() })
	return out
}

// AddToStore dumps the table into st under variable name — the lossless
// dense→canonical converter (snapshots, migration, replication seeds).
func (t *Table) AddToStore(st *Store, name string) {
	for _, e := range t.m {
		st.Set(name, e.Idx, e.Val)
	}
	for _, e := range t.wide {
		st.Set(name, e.Idx, e.Val)
	}
}

// CopyFrom replaces the table's contents with src's. The entries share
// src's retained index tuples, which are immutable.
func (t *Table) CopyFrom(src *Table) {
	t.m = maps.Clone(src.m)
	t.wide = maps.Clone(src.wide)
}

// SeedFrom loads variable name's entries from a canonical store — the
// canonical→dense converter. Existing table contents are replaced.
func (t *Table) SeedFrom(st *Store, name string) {
	t.m = nil
	t.wide = nil
	for _, e := range st.Entries(name) {
		t.SetTuple(e.Idx, e.Val)
	}
}
