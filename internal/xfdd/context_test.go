package xfdd_test

import (
	"math/rand"
	"runtime"
	"testing"

	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// TestContextDetachKeepsClass: assigning a field that sits in the middle of
// an equality class (dstport → srcport → srcip) takes only that field out;
// the fields it linked stay equal and do not inherit its new value.
func TestContextDetachKeepsClass(t *testing.T) {
	c := xfdd.NewContext().
		With(xfdd.NewFF(pkt.SrcPort, pkt.DstPort), true).
		With(xfdd.NewFF(pkt.SrcIP, pkt.SrcPort), true).
		WithAssignments(map[pkt.Field]values.Value{pkt.SrcPort: values.Int(5)})
	if v, ok := c.KnownValue(pkt.DstPort); ok {
		t.Errorf("KnownValue(dstport) = %v; only srcport was assigned", v)
	}
	if out, known := c.Infer(xfdd.NewFF(pkt.DstPort, pkt.SrcIP)); !known || !out {
		t.Errorf("Infer(dstport = srcip) = %v, known %v; want true", out, known)
	}
	if v, ok := c.KnownValue(pkt.SrcPort); !ok || !values.Eq(v, values.Int(5)) {
		t.Errorf("KnownValue(srcport) = %v, %v; want 5", v, ok)
	}
	if _, known := c.Infer(xfdd.NewFF(pkt.SrcPort, pkt.SrcIP)); known {
		t.Error("srcport = srcip decided after srcport was assigned")
	}
}

// TestContextAssignmentForgetsInequality: a known inequality between two
// fields says nothing once one of them is assigned.
func TestContextAssignmentForgetsInequality(t *testing.T) {
	c := xfdd.NewContext().
		With(xfdd.NewFF(pkt.SrcIP, pkt.DstIP), false).
		WithAssignments(map[pkt.Field]values.Value{pkt.SrcIP: values.IPv4(10, 0, 0, 1)})
	if out, known := c.Infer(xfdd.NewFF(pkt.SrcIP, pkt.DstIP)); known {
		t.Errorf("Infer(srcip = dstip) = %v after srcip was assigned; want undecided", out)
	}
}

// TestContextWithAllocsIndependentOfDepth: extending a context costs the
// same however many facts it already holds on the tested field.
func TestContextWithAllocsIndependentOfDepth(t *testing.T) {
	build := func(n int) *xfdd.Context {
		c := xfdd.NewContext()
		for i := 0; i < n; i++ {
			c = c.With(xfdd.FVTest{Field: pkt.SrcIP, Val: values.IP(uint32(i))}, false)
		}
		return c
	}
	probe := xfdd.FVTest{Field: pkt.SrcIP, Val: values.IPv4(10, 1, 2, 3)}
	var sink *xfdd.Context
	cost := func(c *xfdd.Context) (allocs, bytes float64) {
		extend := func() { sink = c.With(probe, false) }
		allocs = testing.AllocsPerRun(100, extend)
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			extend()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	a5, b5 := cost(build(5))
	a500, b500 := cost(build(500))
	_ = sink
	if a500 > a5 {
		t.Errorf("With allocates %.0f objects on 500 facts, %.0f on 5", a500, a5)
	}
	// A little slack for allocations by other goroutines during the loop.
	if b500 > b5+64 {
		t.Errorf("With allocates %.0f bytes on 500 facts, %.0f on 5", b500, b5)
	}
}

// refContext is a naive reference model of Context. It keeps the equality
// classes as an explicit partition (a class label per field), the facts of
// each field in recording order, and the state-test outcomes in a map, and
// answers queries by scanning them.
//
// Each class has a representative, the field that state-test keys resolve
// to: a field-field test keeps the representative of its first field's
// class, and a representative that is assigned hands over to the lowest
// field left in its class.
type refContext struct {
	label    [pkt.NumFields]int
	rep      map[int]pkt.Field
	val      map[int]values.Value
	neq      map[[2]int]bool
	pos, neg [pkt.NumFields][]values.Value
	st       map[string]bool
	next     int
}

func newRef() *refContext {
	r := &refContext{rep: map[int]pkt.Field{}, val: map[int]values.Value{}, neq: map[[2]int]bool{}, st: map[string]bool{}}
	for f := range r.label {
		r.label[f] = f
		r.rep[f] = pkt.Field(f)
	}
	r.next = int(pkt.NumFields)
	return r
}

func (r *refContext) clone() *refContext {
	n := *r
	n.rep, n.val, n.neq, n.st = map[int]pkt.Field{}, map[int]values.Value{}, map[[2]int]bool{}, map[string]bool{}
	for k, v := range r.rep {
		n.rep[k] = v
	}
	for k, v := range r.val {
		n.val[k] = v
	}
	for k, v := range r.neq {
		n.neq[k] = v
	}
	for k, v := range r.st {
		n.st[k] = v
	}
	for f := range r.pos {
		n.pos[f] = append([]values.Value(nil), r.pos[f]...)
		n.neg[f] = append([]values.Value(nil), r.neg[f]...)
	}
	return &n
}

func labelPair(a, b int) [2]int {
	if b < a {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (r *refContext) knownValue(f pkt.Field) (values.Value, bool) {
	v, ok := r.val[r.label[f]]
	return v, ok
}

func (r *refContext) resolve(e syntax.Expr) syntax.Expr {
	if fr, ok := e.(syntax.FieldRef); ok {
		if v, ok := r.knownValue(fr.Field); ok {
			return syntax.Const{Val: v}
		}
		return syntax.FieldRef{Field: r.rep[r.label[fr.Field]]}
	}
	return e
}

func (r *refContext) stKey(t xfdd.STest) string {
	idx := make([]syntax.Expr, len(t.Idx))
	for i, e := range t.Idx {
		idx[i] = r.resolve(e)
	}
	return t.Var + xfdd.IndexKey(idx) + "=" + xfdd.ExprKey(r.resolve(t.Val))
}

func (r *refContext) with(t xfdd.Test, outcome bool) {
	switch x := t.(type) {
	case xfdd.FVTest:
		if !outcome {
			r.neg[x.Field] = append(r.neg[x.Field], x.Val)
			return
		}
		if x.Val.Kind != values.KindPrefix {
			r.val[r.label[x.Field]] = x.Val
		}
		r.pos[x.Field] = append(r.pos[x.Field], x.Val)
	case xfdd.FFTest:
		l1, l2 := r.label[x.F1], r.label[x.F2]
		if !outcome {
			r.neq[labelPair(l1, l2)] = true
			return
		}
		if l1 == l2 {
			return
		}
		for f := range r.label {
			if r.label[f] == l2 {
				r.label[f] = l1
			}
		}
		if v, ok := r.val[l2]; ok {
			r.val[l1] = v
		}
		for p := range r.neq {
			if p[0] == l2 || p[1] == l2 {
				other := p[0] + p[1] - l2
				if other == l2 {
					other = l1
				}
				r.neq[labelPair(l1, other)] = true
			}
		}
	case xfdd.STest:
		r.st[r.stKey(x)] = outcome
	}
}

func (r *refContext) assign(fmap map[pkt.Field]values.Value) {
	for f, v := range fmap {
		l := r.label[f]
		if r.rep[l] == f {
			for g := pkt.Field(1); g < pkt.NumFields; g++ {
				if g != f && r.label[g] == l {
					r.rep[l] = g
					break
				}
			}
		}
		r.label[f] = r.next
		r.rep[r.next] = f
		r.val[r.next] = v
		r.next++
		r.pos[f], r.neg[f] = nil, nil
	}
}

func (r *refContext) infer(t xfdd.Test) (outcome, known bool) {
	switch x := t.(type) {
	case xfdd.FVTest:
		if v, ok := r.knownValue(x.Field); ok {
			return x.Val.Matches(v), true
		}
		for _, w := range r.pos[x.Field] {
			if x.Val.Subsumes(w) {
				return true, true
			}
			if values.Disjoint(x.Val, w) {
				return false, true
			}
		}
		for _, w := range r.neg[x.Field] {
			if w.Subsumes(x.Val) {
				return false, true
			}
		}
	case xfdd.FFTest:
		l1, l2 := r.label[x.F1], r.label[x.F2]
		if l1 == l2 {
			return true, true
		}
		v1, ok1 := r.val[l1]
		v2, ok2 := r.val[l2]
		if ok1 && ok2 {
			return values.Eq(v1, v2), true
		}
		if r.neq[labelPair(l1, l2)] {
			return false, true
		}
	case xfdd.STest:
		out, ok := r.st[r.stKey(x)]
		return out, ok
	}
	return false, false
}

// contextGen draws random tests and assignments over a few fields and a
// small value pool, so that tests repeat, overlap and contradict.
type contextGen struct {
	rng    *rand.Rand
	fields []pkt.Field
}

func (g *contextGen) field() pkt.Field { return g.fields[g.rng.Intn(len(g.fields))] }

func (g *contextGen) exact(f pkt.Field) values.Value {
	if f == pkt.SrcIP || f == pkt.DstIP {
		return values.IPv4(10, 0, byte(g.rng.Intn(2)), byte(1+g.rng.Intn(2)))
	}
	return values.Int(int64(1 + g.rng.Intn(3)))
}

func (g *contextGen) testValue(f pkt.Field) values.Value {
	if (f == pkt.SrcIP || f == pkt.DstIP) && g.rng.Intn(2) == 0 {
		lens := []uint8{16, 24, 25}
		return values.Prefix(uint32(10)<<24|uint32(g.rng.Intn(2))<<8, lens[g.rng.Intn(len(lens))])
	}
	return g.exact(f)
}

func (g *contextGen) expr() syntax.Expr {
	if g.rng.Intn(3) == 0 {
		return syntax.Const{Val: values.Int(int64(1 + g.rng.Intn(3)))}
	}
	return syntax.FieldRef{Field: g.field()}
}

func (g *contextGen) test() xfdd.Test {
	switch n := g.rng.Intn(10); {
	case n < 5:
		f := g.field()
		return xfdd.FVTest{Field: f, Val: g.testValue(f)}
	case n < 8:
		a, b := g.field(), g.field()
		for b == a {
			b = g.field()
		}
		return xfdd.NewFF(a, b)
	default:
		vars := []string{"s", "t"}
		return xfdd.STest{Var: vars[g.rng.Intn(2)], Idx: []syntax.Expr{g.expr()}, Val: g.expr()}
	}
}

func (g *contextGen) assignment() map[pkt.Field]values.Value {
	fmap := map[pkt.Field]values.Value{}
	for i := 1 + g.rng.Intn(2); i > 0; i-- {
		f := g.field()
		fmap[f] = g.exact(f)
	}
	return fmap
}

// TestContextDifferential drives seeded random sequences of With (field-
// value, field-field including chained unions, and state tests) and
// WithAssignments against refContext, and compares every field's known
// value and the outcome of every test drawn so far after each step. Steps
// sometimes continue from an earlier context, and every fifth context is
// re-checked at the end of its sequence, so an extension that disturbed a
// shared part of the context it extended would show.
func TestContextDifferential(t *testing.T) {
	const seeds, steps = 40, 250
	fields := []pkt.Field{pkt.Inport, pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, pkt.Proto}
	for seed := int64(1); seed <= seeds; seed++ {
		g := &contextGen{rng: rand.New(rand.NewSource(seed)), fields: fields}
		type state struct {
			ctx *xfdd.Context
			ref *refContext
		}
		var seen []xfdd.Test
		check := func(step int, s state) {
			for _, f := range fields {
				v, ok := s.ctx.KnownValue(f)
				rv, rok := s.ref.knownValue(f)
				if ok != rok || ok && v != rv {
					t.Fatalf("seed %d step %d: KnownValue(%s) = %v, %v; reference %v, %v", seed, step, f, v, ok, rv, rok)
				}
			}
			for _, q := range seen {
				out, known := s.ctx.Infer(q)
				rout, rknown := s.ref.infer(q)
				if known != rknown || known && out != rout {
					t.Fatalf("seed %d step %d: Infer(%s) = %v, known %v; reference %v, known %v", seed, step, q, out, known, rout, rknown)
				}
			}
		}
		cur := state{xfdd.NewContext(), newRef()}
		history := []state{cur}
		for step := 0; step < steps; step++ {
			switch n := g.rng.Intn(20); {
			case n < 2:
				cur = history[g.rng.Intn(len(history))]
				continue
			case n < 4:
				fmap := g.assignment()
				ref := cur.ref.clone()
				ref.assign(fmap)
				cur = state{cur.ctx.WithAssignments(fmap), ref}
			default:
				q := g.test()
				outcome := g.rng.Intn(2) == 0
				seen = append(seen, q)
				ref := cur.ref.clone()
				ref.with(q, outcome)
				cur = state{cur.ctx.With(q, outcome), ref}
			}
			history = append(history, cur)
			check(step, cur)
		}
		for i := 0; i < len(history); i += 5 {
			check(steps+i, history[i])
		}
	}
}
