package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one operation share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 opens a new operation).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	req := 0
	if parent < 0 {
		t.reqs++
		req = t.reqs
	} else {
		req = t.spans[parent].Req
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// record adds a closed child span for a duration the layer reported
// itself (a phase time inside a call the benchmark cannot split), laid
// out from at within the parent. It returns the new span's id.
func (t *tracer) record(name string, parent int, at time.Time, d time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	start := int64(at.Sub(t.t0))
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.spans[parent].Req, Name: name, Start: start, End: start + int64(d)})
	return id
}

// selfStat is a span name's call count, total time and self time (total
// minus the time its child spans cover).
type selfStat struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) selfTimes() []selfStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	by := map[string]*selfStat{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			by[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Calls++
		st.Total += d
		st.Self += d - child[i]
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
