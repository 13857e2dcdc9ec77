package xfdd

import (
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// Context accumulates the tests (and their outcomes) passed on the current
// xFDD path, plus field assignments from action sequences, and answers
// inference queries: does a test's outcome follow from what we already know?
// This is the "context" argument threaded through ⊕ and the sequential
// composition algorithm in Figure 8 and Appendix E.
//
// A context is immutable. With and WithAssignments build a new context that
// shares everything it does not change with the one it extends:
//
//   - field-value facts form one newest-first list whose nodes also link to
//     the previous positive and negative fact on their own field, so each
//     field's facts are a cons list; an extension prepends a node;
//   - equality classes (union-find parents, the exact values known for
//     classes and the class pairs known unequal) form one value that field-
//     field tests, value-pinning tests and assignments replace with a copy
//     (copy-on-write); every other extension shares it;
//   - state-test outcomes form a newest-first list.
//
// An extension therefore allocates a fixed, small number of objects, however
// deep the path and however many fields the program tests.
type Context struct {
	fv *fvFact // newest field-value fact; nil when the path has none
	// fact holds the field-value fact this context added, if it added
	// one (then fv points at it): one allocation per extension.
	fact fvFact

	eq *classes // equality classes, shared until an extension changes them
	st *stFact  // newest state-test outcome; nil when the path has none

	// store/id tie the context into a translator's hash-consing store:
	// contexts with a store carry a unique id used in the apply-cache keys,
	// and With extensions are memoized in the store so identical extension
	// chains from the shared root yield pointer-identical contexts
	// (canonical context identity). Contexts built via the public NewContext
	// have no store and id 0, which the caches treat as "never cacheable".
	store *Store
	id    uint64
}

// withKey identifies one extension of one store-bound context.
type withKey struct {
	ctx     uint64
	test    int32
	outcome bool
}

type factKind uint8

const (
	posFact   factKind = iota // the field passed a test against val
	negFact                   // the field failed a test against val
	resetFact                 // an assignment overwrote the field: older facts on it no longer hold
)

// fvFact is one field-value fact of a path.
type fvFact struct {
	field pkt.Field
	kind  factKind
	val   values.Value
	// prevPos/prevNeg are the newest older positive and negative facts on
	// the same field recorded since its last reset.
	prevPos, prevNeg *fvFact
	// run is the newest older fact on a field other than field: following
	// run skips a whole run of facts on one field.
	run *fvFact
	// fields has bit f set when this fact or an older one is on field f.
	fields uint32
}

// The field mask of fvFact must hold every field.
const _ = uint32(1 << (pkt.NumFields - 1))

// newest returns the newest positive or negative fact (kind) of the field
// whose newest fact is h.
func (h *fvFact) newest(kind factKind) *fvFact {
	switch {
	case h == nil || h.kind == kind:
		return h
	case kind == posFact:
		return h.prevPos
	}
	return h.prevNeg
}

// fieldHead returns the newest fact on field f, or nil.
func (c *Context) fieldHead(f pkt.Field) *fvFact {
	n := c.fv
	if n == nil || n.fields&(1<<f) == 0 {
		return nil
	}
	for n.field != f {
		n = n.run
	}
	return n
}

// linkFact makes n, a fact not yet in any list, the newest fact of c's
// list and returns it.
func (c *Context) linkFact(n *fvFact) *fvFact {
	f, kind := n.field, n.kind
	n.fields = 1 << f
	if top := c.fv; top != nil {
		n.fields |= top.fields
		if top.field != f {
			n.run = top
		} else {
			n.run = top.run
		}
	}
	if kind != resetFact {
		h := c.fieldHead(f)
		n.prevPos, n.prevNeg = h.newest(posFact), h.newest(negFact)
	}
	return n
}

// classes records which fields are known equal, the exact values known for
// their classes, and which classes are known unequal. A classes value is
// never modified once a context refers to it.
type classes struct {
	// parent holds union-find links; FieldNone marks a class root.
	parent [pkt.NumFields]pkt.Field
	// vals holds the exact values known for class roots.
	vals []rootVal
	// neq holds class-root pairs known unequal, each ordered low to high.
	neq [][2]pkt.Field
}

type rootVal struct {
	root pkt.Field
	val  values.Value
}

// noClasses is the equality state of an empty context: every field its own
// class, nothing known.
var noClasses = &classes{}

// clone returns a private copy of k that may be modified.
func (k *classes) clone() *classes {
	n := *k
	n.vals = append([]rootVal(nil), k.vals...)
	n.neq = append([][2]pkt.Field(nil), k.neq...)
	return &n
}

func (k *classes) root(f pkt.Field) pkt.Field {
	for k.parent[f] != pkt.FieldNone {
		f = k.parent[f]
	}
	return f
}

func (k *classes) value(r pkt.Field) (values.Value, bool) {
	for _, rv := range k.vals {
		if rv.root == r {
			return rv.val, true
		}
	}
	return values.None, false
}

func (k *classes) unequal(r1, r2 pkt.Field) bool {
	return containsPair(k.neq, fieldPair(r1, r2))
}

// setValue records v as the value of class root r (k must be private).
func (k *classes) setValue(r pkt.Field, v values.Value) {
	for i := range k.vals {
		if k.vals[i].root == r {
			k.vals[i].val = v
			return
		}
	}
	k.vals = append(k.vals, rootVal{root: r, val: v})
}

// dropValue forgets the value of class root r (k must be private).
func (k *classes) dropValue(r pkt.Field) {
	for i := range k.vals {
		if k.vals[i].root == r {
			k.vals = append(k.vals[:i], k.vals[i+1:]...)
			return
		}
	}
}

// rekey moves what k knows about class root from onto class root to, or
// forgets it when to is FieldNone (k must be private).
func (k *classes) rekey(from, to pkt.Field) {
	if v, ok := k.value(from); ok {
		k.dropValue(from)
		if to != pkt.FieldNone {
			k.setValue(to, v)
		}
	}
	kept := k.neq[:0]
	for _, p := range k.neq {
		if p[0] == from || p[1] == from {
			if to == pkt.FieldNone {
				continue
			}
			for i := range p {
				if p[i] == from {
					p[i] = to
				}
			}
			p = fieldPair(p[0], p[1])
		}
		if !containsPair(kept, p) {
			kept = append(kept, p)
		}
	}
	k.neq = kept
}

func containsPair(ps [][2]pkt.Field, p [2]pkt.Field) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// union merges the class of root r2 into the class of root r1 (k must be
// private). A value known for r2's class wins over one known for r1's.
func (k *classes) union(r1, r2 pkt.Field) {
	k.parent[r2] = r1
	k.rekey(r2, r1)
}

// detach makes f a class of its own (k must be private). The rest of f's
// class stays together: its root is unchanged, or, when f was the root, is
// the lowest remaining member, which inherits the class's value and
// inequalities.
func (k *classes) detach(f pkt.Field) {
	r := k.root(f)
	var buf [pkt.NumFields]pkt.Field
	members := buf[:0]
	for g := pkt.Field(1); g < pkt.NumFields; g++ {
		if g != f && k.root(g) == r {
			members = append(members, g)
		}
	}
	newRoot := r
	if r == f {
		newRoot = pkt.FieldNone
		if len(members) > 0 {
			newRoot = members[0] // lowest: members are in field order
		}
		k.rekey(f, newRoot)
	}
	for _, g := range members {
		k.parent[g] = newRoot
	}
	if newRoot != pkt.FieldNone {
		k.parent[newRoot] = pkt.FieldNone
	}
	k.parent[f] = pkt.FieldNone
}

// stFact is one recorded state-test outcome, keyed by the test resolved
// under the context it was recorded in.
type stFact struct {
	key     string
	outcome bool
	next    *stFact
}

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{eq: noClasses}
}

// newStoreContext builds the store's root context (id 1-based).
func newStoreContext(st *Store) *Context {
	return &Context{eq: noClasses, store: st, id: st.nextCtxID()}
}

// derive returns a new context sharing everything with c.
func (c *Context) derive() *Context {
	n := &Context{fv: c.fv, eq: c.eq, st: c.st, store: c.store}
	if c.store != nil {
		n.id = c.store.nextCtxID()
	}
	return n
}

// KnownValue returns the exact value of f if the context pins one,
// consulting field-equality classes.
func (c *Context) KnownValue(f pkt.Field) (values.Value, bool) {
	return c.eq.value(c.eq.root(f))
}

// With returns c extended with the outcome of a test. Recording a test the
// context already decides is harmless. On store-bound contexts the
// extension is memoized: the same (test, outcome) extension of the same
// context returns the same object, keeping context identity canonical for
// the composition caches.
func (c *Context) With(t Test, outcome bool) *Context {
	if c.store == nil {
		return c.extend(t, outcome)
	}
	k := withKey{ctx: c.id, test: c.store.TestID(t), outcome: outcome}
	if n, ok := c.store.withMemo.get(k); ok {
		return n
	}
	n := c.extend(t, outcome)
	c.store.withMemo.put(k, n)
	return n
}

func (c *Context) extend(t Test, outcome bool) *Context {
	n := c.derive()
	switch x := t.(type) {
	case FVTest:
		kind := negFact
		if outcome {
			kind = posFact
			r := c.eq.root(x.Field)
			if old, ok := c.eq.value(r); x.Val.Kind != values.KindPrefix && (!ok || old != x.Val) {
				eq := c.eq.clone()
				eq.setValue(r, x.Val)
				n.eq = eq
			}
		}
		n.fact = fvFact{field: x.Field, kind: kind, val: x.Val}
		n.fv = c.linkFact(&n.fact)
	case FFTest:
		r1, r2 := c.eq.root(x.F1), c.eq.root(x.F2)
		switch {
		case outcome && r1 != r2:
			eq := c.eq.clone()
			eq.union(r1, r2)
			n.eq = eq
		case !outcome && !c.eq.unequal(r1, r2):
			eq := c.eq.clone()
			eq.neq = append(eq.neq, fieldPair(r1, r2))
			n.eq = eq
		}
	case STest:
		n.st = &stFact{key: c.resolveSTKey(x), outcome: outcome, next: c.st}
	}
	return n
}

// WithAssignments returns c extended with exact field values established by
// an action sequence's modifications (the update(T, fmap) of Appendix E).
// Assignment overrides any prior knowledge about the field, and detaches the
// field from its equality class (its value no longer tracks the class).
func (c *Context) WithAssignments(fmap map[pkt.Field]values.Value) *Context {
	if len(fmap) == 0 {
		return c
	}
	n := c.derive()
	eq := c.eq.clone()
	// Field order, so the result does not depend on map iteration.
	for f := pkt.Field(1); f < pkt.NumFields; f++ {
		v, ok := fmap[f]
		if !ok {
			continue
		}
		eq.detach(f)
		eq.setValue(f, v)
		n.fv = n.linkFact(&fvFact{field: f, kind: resetFact})
	}
	n.eq = eq
	return n
}

func fieldPair(a, b pkt.Field) [2]pkt.Field {
	if b < a {
		a, b = b, a
	}
	return [2]pkt.Field{a, b}
}

// Infer reports whether the context decides test t, and if so its outcome.
// This is the inferred() helper of Appendix E generalized to all test kinds.
func (c *Context) Infer(t Test) (outcome, known bool) {
	switch x := t.(type) {
	case FVTest:
		if v, ok := c.KnownValue(x.Field); ok {
			return x.Val.Matches(v), true
		}
		h := c.fieldHead(x.Field)
		// Positive facts decide first. The list runs newest first; the
		// oldest deciding fact wins, as in a scan in recording order.
		decided := false
		for w := h.newest(posFact); w != nil; w = w.prevPos {
			if x.Val.Subsumes(w.val) {
				decided, outcome = true, true
			} else if values.Disjoint(x.Val, w.val) {
				decided, outcome = true, false
			}
		}
		if decided {
			return outcome, true
		}
		for w := h.newest(negFact); w != nil; w = w.prevNeg {
			if w.val.Subsumes(x.Val) {
				return false, true
			}
		}
		return false, false

	case FFTest:
		r1, r2 := c.eq.root(x.F1), c.eq.root(x.F2)
		if r1 == r2 {
			return true, true
		}
		v1, ok1 := c.eq.value(r1)
		v2, ok2 := c.eq.value(r2)
		if ok1 && ok2 {
			return values.Eq(v1, v2), true
		}
		if c.eq.unequal(r1, r2) {
			return false, true
		}
		return false, false

	case STest:
		key := c.resolveSTKey(x)
		for s := c.st; s != nil; s = s.next {
			if s.key == key {
				return s.outcome, true
			}
		}
		return false, false
	}
	return false, false
}

// ResolveExpr substitutes context knowledge into a scalar expression: known
// field values become constants; otherwise field refs are normalized to
// their equality-class root (the value() helper of Appendix E).
func (c *Context) ResolveExpr(e syntax.Expr) syntax.Expr {
	if fr, ok := e.(syntax.FieldRef); ok {
		r := c.eq.root(fr.Field)
		if v, ok := c.eq.value(r); ok {
			return syntax.Const{Val: v}
		}
		return syntax.FieldRef{Field: r}
	}
	return e
}

// ResolveIdx applies ResolveExpr to each index component.
func (c *Context) ResolveIdx(idx []syntax.Expr) []syntax.Expr {
	out := make([]syntax.Expr, len(idx))
	for i, e := range idx {
		out[i] = c.ResolveExpr(e)
	}
	return out
}

// resolveSTKey canonicalizes a state test under the context, so that
// s[srcip]=v and s[dstip]=v share a key whenever srcip and dstip are known
// equal.
func (c *Context) resolveSTKey(t STest) string {
	return t.Var + IndexKey(c.ResolveIdx(t.Idx)) + "=" + ExprKey(c.ResolveExpr(t.Val))
}

// EqOutcome classifies expression-equality queries.
type EqOutcome int

// Possible eequal outcomes: the expressions are certainly equal, certainly
// unequal, or undetermined (branch on DecidingTest).
const (
	EqYes EqOutcome = iota
	EqNo
	EqBoth
)

// EExprEqual implements eequal (Algorithm 4): decide whether two expression
// vectors evaluate to equal value tuples under the context. When
// undetermined, it returns the field-field or field-value test whose outcome
// would decide the first undetermined component.
func (c *Context) EExprEqual(e1, e2 []syntax.Expr) (EqOutcome, Test) {
	if len(e1) != len(e2) {
		return EqNo, nil
	}
	for i := range e1 {
		a := c.ResolveExpr(e1[i])
		b := c.ResolveExpr(e2[i])
		ca, isCA := a.(syntax.Const)
		cb, isCB := b.(syntax.Const)
		switch {
		case isCA && isCB:
			if !values.Eq(ca.Val, cb.Val) {
				return EqNo, nil
			}
		case !isCA && !isCB:
			fa := a.(syntax.FieldRef).Field
			fb := b.(syntax.FieldRef).Field
			if fa == fb {
				continue
			}
			t := NewFF(fa, fb)
			if out, known := c.Infer(t); known {
				if !out {
					return EqNo, nil
				}
				continue
			}
			return EqBoth, t
		default:
			// One constant, one field: branch on a field-value test.
			var f pkt.Field
			var v values.Value
			if isCA {
				f, v = b.(syntax.FieldRef).Field, ca.Val
			} else {
				f, v = a.(syntax.FieldRef).Field, cb.Val
			}
			if v.Kind == values.KindPrefix {
				// A prefix literal used as an index value denotes the prefix
				// object itself; packet fields hold exact values, so the
				// component cannot be equal (documented restriction: fields
				// are never assigned prefix values).
				return EqNo, nil
			}
			t := FVTest{Field: f, Val: v}
			if out, known := c.Infer(t); known {
				if !out {
					return EqNo, nil
				}
				continue
			}
			return EqBoth, t
		}
	}
	return EqYes, nil
}
