package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span is one duration event on a named track of the model timeline.
// Start and Dur are seconds on whatever clock the producer maintains —
// the execution engines place spans on their modelled two-clock timeline
// (one "disk" I/O channel, one "compute" engine), so a trace of an
// overlapped run shows prefetch and write-behind riding alongside
// compute.
type Span struct {
	Track string
	Name  string
	// Start and Dur are seconds on the producer's model clock.
	Start, Dur float64
	// Args are attached to the Chrome trace event verbatim.
	Args map[string]any
}

// Instant is a zero-duration marker event (e.g. barriers).
type Instant struct {
	Track string
	Name  string
	// TS is seconds on the producer's model clock.
	TS   float64
	Args map[string]any
}

// Tracer collects spans and instants concurrently. The zero value is not
// usable; construct with NewTracer. A nil *Tracer is safe to pass around:
// every recording method no-ops on nil, so call sites need no guards.
type Tracer struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span records a duration event.
func (t *Tracer) Span(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Instant records a marker event.
func (t *Tracer) Instant(i Instant) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.instants = append(t.instants, i)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Instants returns a copy of the recorded instants in recording order.
func (t *Tracer) Instants() []Instant {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Instant(nil), t.instants...)
}

// TrackSeconds sums the span durations of one track — e.g. the total
// modelled disk time of the "disk" track, comparable to disk.Stats.Time().
func (t *Tracer) TrackSeconds(track string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Track == track {
			total += s.Dur
		}
	}
	return total
}

// Reset clears the recording.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.instants = nil, nil
	t.mu.Unlock()
}

// Well-known track names used across the execution engines.
const (
	// TrackDisk is the modelled I/O channel.
	TrackDisk = "disk"
	// TrackCompute is the modelled compute engine.
	TrackCompute = "compute"
)

// chromeEvent is one entry of the Chrome Trace Event format (the JSON
// consumed by Perfetto and chrome://tracing). Timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// trackIDs assigns stable thread ids: disk first, compute second, any
// further tracks sorted by name after them.
func trackIDs(spans []Span, instants []Instant) map[string]int {
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Track] = true
	}
	for _, i := range instants {
		seen[i.Track] = true
	}
	ids := map[string]int{}
	next := 1
	for _, known := range []string{TrackDisk, TrackCompute} {
		if seen[known] {
			ids[known] = next
			next++
			delete(seen, known)
		}
	}
	var rest []string
	for t := range seen {
		rest = append(rest, t)
	}
	sort.Strings(rest)
	for _, t := range rest {
		ids[t] = next
		next++
	}
	return ids
}

// ChromeTrace renders the recording as Chrome Trace Event JSON. Each
// track becomes one thread of process 1 with a thread_name metadata
// record; spans become complete ("X") events and instants become
// thread-scoped instant ("i") events. The model clock's seconds map to
// trace microseconds.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	spans, instants := t.Spans(), t.Instants()
	ids := trackIDs(spans, instants)

	events := make([]chromeEvent, 0, len(ids)+len(spans)+len(instants))
	// Name the threads first, in tid order, so viewers label the tracks.
	byID := make([]string, 0, len(ids))
	for track := range ids {
		byID = append(byID, track)
	}
	sort.Slice(byID, func(i, j int) bool { return ids[byID[i]] < ids[byID[j]] })
	for _, track := range byID {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   ids[track],
			Args:  map[string]any{"name": track},
		})
	}
	const usPerSec = 1e6
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    s.Start * usPerSec,
			Dur:   s.Dur * usPerSec,
			PID:   1,
			TID:   ids[s.Track],
			Args:  s.Args,
		})
	}
	for _, i := range instants {
		events = append(events, chromeEvent{
			Name:  i.Name,
			Phase: "i",
			TS:    i.TS * usPerSec,
			PID:   1,
			TID:   ids[i.Track],
			Scope: "t",
			Args:  i.Args,
		})
	}
	return json.MarshalIndent(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"clock": "modelled seconds (1 s = 1e6 trace µs)",
		},
	}, "", " ")
}

// WriteChromeTrace writes the Chrome Trace Event JSON to w.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	raw, err := t.ChromeTrace()
	if err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	_, err = w.Write(raw)
	return err
}
