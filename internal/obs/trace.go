package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
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

// Arg is a typed span or instant argument, carried inline in the
// tracer's record; it exports as an int64, bool or float64.
type Arg struct {
	key  Key
	kind uint8 // 1 int64, 2 bool, 3 float64
	bits uint64
}

// Int makes an int64 argument under a key from Tracer.Key.
func Int(k Key, v int64) Arg { return Arg{k, 1, uint64(v)} }

// Bool makes a bool argument.
func Bool(k Key, v bool) Arg {
	if v {
		return Arg{k, 2, 1}
	}
	return Arg{k, 2, 0}
}

// Float makes a float64 argument.
func Float(k Key, v float64) Arg { return Arg{k, 3, math.Float64bits(v)} }

func (a Arg) value() any {
	switch a.kind {
	case 1:
		return int64(a.bits)
	case 2:
		return a.bits != 0
	}
	return math.Float64frombits(a.bits)
}

// event is the tracer's fixed-size, pointer-free record of a span or an
// instant (whose timestamp is start).
type event struct {
	start, dur  float64
	track, name Key
	instant     bool
	nargs       uint8
	// verbatim is 1 + the index in Tracer.verbatim of the event's Args
	// map, 0 if its arguments are all inline.
	verbatim int32
	args     [2]Arg
}

// Tracer collects spans and instants concurrently. The zero value is not
// usable; construct with NewTracer. A nil *Tracer is safe to pass around:
// every recording method no-ops on nil, so call sites need no guards.
//
// The recording is a chunkLog of events: a span recorded with Record
// or Mark under keys from Key allocates nothing beyond an occasional
// chunk. Spans, Instants and ChromeTrace build their values on read.
type Tracer struct {
	mu       sync.Mutex
	strs     interner
	events   chunkLog[event]
	verbatim []map[string]any
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Key interns s as a track, name or argument key of this tracer; a key
// means nothing to another tracer.
func (t *Tracer) Key(s string) Key {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strs.Key(s)
}

// Record records a duration event with typed arguments.
func (t *Tracer) Record(track, name Key, start, dur float64, args ...Arg) {
	t.add(event{start: start, dur: dur, track: track, name: name}, args, nil)
}

// Mark records a marker event with typed arguments.
func (t *Tracer) Mark(track, name Key, ts float64, args ...Arg) {
	t.add(event{start: ts, track: track, name: name, instant: true}, args, nil)
}

// Span records a duration event, keeping a copy of its Args verbatim.
func (t *Tracer) Span(s Span) {
	t.add(event{start: s.Start, dur: s.Dur, track: t.Key(s.Track), name: t.Key(s.Name)}, nil, s.Args)
}

// Instant records a marker event, keeping a copy of its Args verbatim.
func (t *Tracer) Instant(i Instant) {
	t.add(event{start: i.TS, track: t.Key(i.Track), name: t.Key(i.Name), instant: true}, nil, i.Args)
}

// add appends ev with its arguments: typed ones inline unless they do not
// fit, a map (or the typed ones that do not fit) into the verbatim table.
func (t *Tracer) add(ev event, args []Arg, m map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(args) > len(ev.args) {
		m = map[string]any{}
		for _, a := range args {
			m[t.strs.String(a.key)] = a.value()
		}
	}
	if m != nil {
		t.verbatim = append(t.verbatim, maps.Clone(m))
		ev.verbatim = int32(len(t.verbatim))
	} else {
		ev.nargs = uint8(copy(ev.args[:], args))
	}
	t.events.Append(ev)
}

// each calls fn on every span (instant false) or every instant, in
// recording order, with its strings and its Args built afresh.
func (t *Tracer) each(instant bool, fn func(ev event, track, name string, args map[string]any)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.events.Len() {
		ev := t.events.At(i)
		if ev.instant != instant {
			continue
		}
		var args map[string]any
		if ev.verbatim > 0 {
			args = maps.Clone(t.verbatim[ev.verbatim-1])
		} else if ev.nargs > 0 {
			args = make(map[string]any, ev.nargs)
			for _, a := range ev.args[:ev.nargs] {
				args[t.strs.String(a.key)] = a.value()
			}
		}
		fn(ev, t.strs.String(ev.track), t.strs.String(ev.name), args)
	}
}

// Spans returns the recorded spans in recording order, built afresh.
func (t *Tracer) Spans() (out []Span) {
	t.each(false, func(ev event, track, name string, args map[string]any) {
		out = append(out, Span{Track: track, Name: name, Start: ev.start, Dur: ev.dur, Args: args})
	})
	return out
}

// Instants returns the recorded instants in recording order, built
// afresh.
func (t *Tracer) Instants() (out []Instant) {
	t.each(true, func(ev event, track, name string, args map[string]any) {
		out = append(out, Instant{Track: track, Name: name, TS: ev.start, Args: args})
	})
	return out
}

// TrackSeconds sums the span durations of one track — e.g. the total
// modelled disk time of the "disk" track, comparable to disk.Stats.Time().
func (t *Tracer) TrackSeconds(track string) (total float64) {
	t.each(false, func(ev event, tr, _ string, _ map[string]any) {
		if tr == track {
			total += ev.dur
		}
	})
	return total
}

// Reset clears the recording.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events.Reset()
	t.verbatim = nil
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
