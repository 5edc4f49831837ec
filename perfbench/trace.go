package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the index
// of the enclosing span (-1 for a job's root span); spans of one job
// share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (tr *tracer) begin(name string, parent, job int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.epoch).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.epoch).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// selfTime is one span name's total duration and self time: its spans'
// durations minus the parts of them that child spans cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates closed spans by name, sorted by self time.
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			agg[s.Name] = st
		}
		total := s.End - s.Start
		st.Count++
		st.TotalS += float64(total) / 1e9
		st.SelfS += float64(total-covered(s, children[i])) / 1e9
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids
// covers, clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// writeSpans writes every recorded span and the self-time table as one
// JSON document.
func (tr *tracer) writeSpans(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	doc := struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self_times"`
	}{tr.spans, selfTimes(tr.spans)}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
