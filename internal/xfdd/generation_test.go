package xfdd

import (
	"testing"

	"snap/internal/apps"
	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// dnsCampusRevision is revision i of the DNS lineage on the six-port
// campus: the Figure 1 detector between the operator assumption and
// assign-egress, plus one ACL fragment dropping a source port that changes
// with every revision.
func dnsCampusRevision(i int) syntax.Policy {
	acl := syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(int64(60000+i))), syntax.Nothing(), syntax.Id())
	return syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), acl, apps.AssignEgress(6)))
}

func (m *genMap[K, V]) len() int { return len(m.cur) + len(m.prev) }

// retained counts the apply-cache entries and contexts the store holds
// (both generations; an entry promoted from the previous generation counts
// twice, as it is held twice until the next generation starts).
func (st *Store) retained() int {
	return st.unionCache.len() + st.seqCache.len() + st.seqASCache.len() +
		st.negCache.len() + st.restrictCache.len() + st.withMemo.len() + st.assignCache.len()
}

// TestContextGenerationsBounded: a translator that follows a chain of edits
// keeps only the contexts and apply-cache entries of its last two
// translations, so what it holds after 200 edits is no more than after 20.
// The fragment memo and the node table, which carry reuse across edits,
// are not counted: they keep what every revision minted.
func TestContextGenerationsBounded(t *testing.T) {
	tr := NewTranslator(deps.OrderOf(dnsCampusRevision(0)))
	var at20 int
	for i := 0; i <= 200; i++ {
		if _, err := tr.TranslateMemo(dnsCampusRevision(i)); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			at20 = tr.st.retained()
		}
	}
	if at20 == 0 {
		t.Fatal("no contexts or cache entries retained after 20 edits")
	}
	if got := tr.st.retained(); got > at20 {
		t.Fatalf("retained %d contexts and cache entries after 200 edits, %d after 20", got, at20)
	}
}
