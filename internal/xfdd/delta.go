// Delta translation: recompile a policy on a translator that has already
// compiled a previous revision, reusing the interned diagram of every
// fragment that survived the edit. The fragment memo is keyed by
// structural hash (confirmed with syntax.Equal), so an unchanged
// subprogram — however deep in the composition tree — resolves to its
// previous diagram pointer without re-running to-xfdd, and the apply
// caches then memoize the recomposition of the spine above it. A
// translator's memo stays valid for its lifetime: a fragment's diagram
// depends only on the fragment and the test order, both fixed per
// translator.
package xfdd

import (
	"sort"

	"snap/internal/syntax"
)

type memoEntry struct {
	p syntax.Policy
	d *Diagram
}

// TranslateMemo compiles p like ToXFDD + CheckRaces, but consults and
// feeds the fragment memo at every composition node. On a translator that
// compiled a prior revision of p, only edited fragments and the spine
// above them are recompiled. Each call starts a new generation of the
// store's apply caches and contexts, so a translator that follows a long
// chain of edits retains only what the last two translations used.
func (tr *Translator) TranslateMemo(p syntax.Policy) (*Diagram, error) {
	tr.st.newGeneration()
	d, err := tr.toXFDDMemo(p)
	if err != nil {
		return nil, err
	}
	if err := CheckRaces(d); err != nil {
		return nil, err
	}
	return d, nil
}

func (tr *Translator) toXFDDMemo(p syntax.Policy) (*Diagram, error) {
	h := syntax.Hash(p)
	if tr.memo == nil {
		tr.memo = map[uint64][]memoEntry{}
	}
	for _, e := range tr.memo[h] {
		if syntax.Equal(e.p, p) {
			return e.d, nil
		}
	}

	var d *Diagram
	var err error
	switch n := p.(type) {
	case syntax.Seq:
		d, err = tr.binopMemo(n.P, n.Q, func(a, b *Diagram, c *Context) (*Diagram, error) {
			return tr.seqCompose(a, b, c)
		})
	case syntax.And:
		d, err = tr.binopMemo(n.X, n.Y, func(a, b *Diagram, c *Context) (*Diagram, error) {
			return tr.seqCompose(a, b, c)
		})
	case syntax.Parallel:
		d, err = tr.binopMemo(n.P, n.Q, tr.unionCtx)
	case syntax.Or:
		d, err = tr.binopMemo(n.X, n.Y, tr.unionCtx)
	case syntax.If:
		d, err = tr.ifMemo(n)
	case syntax.Atomic:
		d, err = tr.toXFDDMemo(n.P)
	default:
		// Leaf-ish nodes (tests, modifications, state ops, negations):
		// cheap to translate, and ToXFDD already interns their nodes.
		d, err = tr.ToXFDD(p)
	}
	if err != nil {
		return nil, err
	}
	tr.memo[h] = append(tr.memo[h], memoEntry{p: p, d: d})
	return d, nil
}

func (tr *Translator) binopMemo(p, q syntax.Policy, op func(a, b *Diagram, c *Context) (*Diagram, error)) (*Diagram, error) {
	dp, err := tr.toXFDDMemo(p)
	if err != nil {
		return nil, err
	}
	dq, err := tr.toXFDDMemo(q)
	if err != nil {
		return nil, err
	}
	return op(dp, dq, tr.st.newContext())
}

// ifMemo mirrors the If case of ToXFDD with memoized recursion on all
// three children (catalogue compositions guard each app with a Cond, so
// an edited guard-free app reuses its neighbours' branches wholesale).
func (tr *Translator) ifMemo(n syntax.If) (*Diagram, error) {
	ctx := tr.st.newContext()
	dx, err := tr.toXFDDMemo(n.Cond)
	if err != nil {
		return nil, err
	}
	nx, err := tr.negate(dx)
	if err != nil {
		return nil, err
	}
	dp, err := tr.toXFDDMemo(n.Then)
	if err != nil {
		return nil, err
	}
	dq, err := tr.toXFDDMemo(n.Else)
	if err != nil {
		return nil, err
	}
	left, err := tr.seqCompose(dx, dp, ctx)
	if err != nil {
		return nil, err
	}
	right, err := tr.seqCompose(nx, dq, ctx)
	if err != nil {
		return nil, err
	}
	return tr.unionCtx(left, right, ctx)
}

// Watermark returns the store's current node counter. Record it before a
// delta translation and pass it to ReuseOf afterwards to split the result
// diagram into nodes that existed before the edit and nodes the edit
// minted.
func (st *Store) Watermark() uint64 { return st.nodes }

// ReuseOf walks d once and reports how many of its unique nodes were
// interned at or before the watermark (reused from a previous
// translation) versus after it (fresh). Uninterned nodes (hand-built
// fixtures) count as fresh.
func ReuseOf(d *Diagram, watermark uint64) (reused, fresh int) {
	seen := map[*Diagram]bool{}
	var walk func(*Diagram)
	walk = func(d *Diagram) {
		if d == nil || seen[d] {
			return
		}
		seen[d] = true
		if d.id != 0 && d.id <= watermark {
			reused++
		} else {
			fresh++
		}
		walk(d.True)
		walk(d.False)
	}
	walk(d)
	return reused, fresh
}

// StructuralEqual compares two diagrams node by node, across stores:
// pointer identity means nothing here, tests compare by SameTest and
// leaves by their canonical action-sequence keys. It is the oracle for
// checking that a delta-translated diagram matches a cold-translated one.
func StructuralEqual(a, b *Diagram) bool {
	type pair struct{ a, b *Diagram }
	seen := map[pair]bool{}
	var eq func(a, b *Diagram) bool
	eq = func(a, b *Diagram) bool {
		if a == b {
			return true
		}
		if a == nil || b == nil {
			return false
		}
		p := pair{a, b}
		if seen[p] {
			return true // already on this comparison path or proven equal
		}
		seen[p] = true
		if a.IsLeaf() != b.IsLeaf() {
			return false
		}
		if a.IsLeaf() {
			// A leaf is a set of action sequences. Store.Leaf orders them
			// by interned seq id — first-seen order, so two stores with
			// different histories canonicalize the same set in different
			// orders. Compare as sorted key sets.
			if len(a.Seqs) != len(b.Seqs) {
				return false
			}
			ka, kb := make([]string, len(a.Seqs)), make([]string, len(b.Seqs))
			for i := range a.Seqs {
				ka[i] = a.Seqs[i].seqKey()
				kb[i] = b.Seqs[i].seqKey()
			}
			sort.Strings(ka)
			sort.Strings(kb)
			for i := range ka {
				if ka[i] != kb[i] {
					return false
				}
			}
			return true
		}
		return SameTest(a.Test, b.Test) && eq(a.True, b.True) && eq(a.False, b.False)
	}
	return eq(a, b)
}
