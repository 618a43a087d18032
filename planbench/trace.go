package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public entry
// point. Spans of one measured op share its op id; spans recorded during
// set-up and output checks carry op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Root spans of handler calls carry the endpoint and the
	// X-Lancet-Cache state the response reported.
	Endpoint string `json:"endpoint,omitempty"`
	Cache    string `json:"cache,omitempty"`
	// Counts recorded at the same boundary: heap objects allocated inside
	// the span (layer replays only), partition-DP evaluations, and
	// cost-model memo hits and lookups.
	Allocs      uint64 `json:"allocs,omitempty"`
	Evals       int    `json:"evals,omitempty"`
	RefEvals    int    `json:"ref_evals,omitempty"` // a hinted DP's cold evaluations on the same input
	MemoHits    int64  `json:"memo_hits,omitempty"`
	MemoLookups int64  `json:"memo_lookups,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit. Safe
// for concurrent use by the two plan-hot clients.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// annotate edits a recorded span, for counts known only after it ended.
func (t *tracer) annotate(id int, fn func(*span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&t.spans[id-1])
}

// call times fn as a span, counting the heap objects it allocates. The
// allocation counter is read outside the timed interval: ReadMemStats stops
// the world, which would otherwise land in the span.
func (t *tracer) call(name string, op, parent int, fn func() error) (span, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs
	start := t.now()
	err := fn()
	end := t.now()
	runtime.ReadMemStats(&ms)
	s := span{Name: name, Op: op, Parent: parent, Start: start, End: end, Allocs: ms.Mallocs - allocs}
	s.ID = t.add(s)
	return s, err
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus what its direct children account
// for. Children overlapping the parent's interval are charged by the part
// of the interval their union covers, so overlapping children count once
// and grandchildren not at all. A child replayed out of line — run after
// the parent returned, on the parent's inputs, so it shares none of the
// parent's interval — is charged its full duration.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var inline []iv
	var outOfLine int64
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi <= lo {
			outOfLine += c.dur()
			continue
		}
		inline = append(inline, iv{lo, hi})
	}
	sort.Slice(inline, func(i, j int) bool { return inline[i].lo < inline[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range inline {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	self := parent.dur() - covered - outOfLine
	return max(self, 0)
}

// layerRow is one line of the traced report: a layer's spans with their
// self times and allocations.
type layerRow struct {
	Name   string
	Count  int
	SelfMs []float64 // per span, sorted
	Allocs []float64 // per span, sorted
}

// layerTable groups spans by name and computes each one's self time.
func layerTable(spans []span) []*layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfMs = append(r.SelfMs, float64(selfTime(s, children[s.ID]))/1e6)
		r.Allocs = append(r.Allocs, float64(s.Allocs))
	}
	out := make([]*layerRow, 0, len(rows))
	for _, r := range rows {
		sort.Float64s(r.SelfMs)
		sort.Float64s(r.Allocs)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printLayerTable renders the per-layer self-time report.
func printLayerTable(w io.Writer, workload string, rows []*layerRow) {
	fmt.Fprintf(w, "per-layer self time, workload %s (spans timed around public entry points)\n", workload)
	fmt.Fprintf(w, "  %-24s %7s %12s %12s %12s %12s\n", "layer", "spans", "total_ms", "p50_ms", "p90_ms", "p50_allocs")
	for _, r := range rows {
		total := 0.0
		for _, v := range r.SelfMs {
			total += v
		}
		fmt.Fprintf(w, "  %-24s %7d %12.3f %12.4f %12.4f %12.0f\n", r.Name, r.Count, total,
			nearestRank(r.SelfMs, 0.5), nearestRank(r.SelfMs, 0.9), nearestRank(r.Allocs, 0.5))
	}
}

// writeSpans writes every recorded span to path as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
