package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// around an exported function of an internal package, or around one
// backend call seen by the timing wrapper.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Op     int    `json:"op"`     // operation the span belongs to
	Name   string `json:"name"`   // "<layer>.<call>", e.g. "dcs.Run"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced pass in memory. The scheduling
// goroutine opens and closes spans through begin/end, which maintain the
// parent stack; backend calls (which the pipelined engine issues from its
// own goroutines) are appended whole through add under the parent the
// caller fixed beforehand. A nil tracer records nothing, so untraced
// passes run the same code without a branch at every call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOp tags subsequently opened spans with an operation id.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned and reports its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	return s.dur()
}

// current returns the innermost open span (0 when none).
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// add appends a finished span under an explicit parent; safe from any
// goroutine.
func (t *tracer) add(parent int, name string, start, end int64) {
	t.mu.Lock()
	op := 0
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval that its child spans cover (children of a pipelined run
// overlap each other, so the cover is a union, not a sum).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, hi := int64(0), s.Start
		for _, c := range ch {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// byName groups total and self time, and call durations, by span name.
type nameStats struct {
	Total time.Duration
	Self  time.Duration
	Durs  []float64 // per-call nanoseconds
}

func spansByName(spans []span) map[string]*nameStats {
	self := selfTimes(spans)
	out := map[string]*nameStats{}
	for _, s := range spans {
		ns := out[s.Name]
		if ns == nil {
			ns = &nameStats{}
			out[s.Name] = ns
		}
		ns.Total += s.dur()
		ns.Self += self[s.ID]
		ns.Durs = append(ns.Durs, float64(s.dur()))
	}
	return out
}

// writeTrace writes the spans of a traced run to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
