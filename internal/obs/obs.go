// Package obs is the unified observability layer of the synthesis
// system: a dependency-free metrics registry (counters, gauges,
// histograms with exact sums, labeled families), a model-timeline span
// tracer exportable as Chrome Trace Event JSON (loadable in Perfetto or
// chrome://tracing), and a structured event log. The disk backends, the
// execution engine, and the DCS solver publish into these primitives;
// the command-line tools export them via -metrics-out and -trace-out.
//
// The package deliberately depends on nothing but the standard library,
// so every other layer (disk, exec, dcs, core, trace, cliutil) can
// import it without cycles.
//
// All three primitives treat nil as "absent": a nil *Log logs nothing, a
// nil *Tracer records nothing, and a nil *Registry hands out nil
// instruments and families, whose producer methods (Counter.Add, Inc and
// Reset, Gauge.Set and Add, Histogram.Observe, and the families' With) do
// nothing. A producer therefore caches its instruments
// from whatever registry it was given and calls them unconditionally;
// only the readers (Value, Snapshot, the exports) need a real registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric (resettable so
// backend ResetStats semantics can be mirrored).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is an instantaneous float metric that also tracks its high-water
// mark since the last reset (queue depths, buffer bytes).
type Gauge struct {
	mu   sync.Mutex
	v    float64
	max  float64
	seen bool
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if !g.seen || v > g.max {
		g.max, g.seen = v, true
	}
	g.mu.Unlock()
}

// Add shifts the gauge's value by d and returns the new value.
func (g *Gauge) Add(d float64) float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	g.v += d
	if !g.seen || g.v > g.max {
		g.max, g.seen = g.v, true
	}
	v := g.v
	g.mu.Unlock()
	return v
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the high-water mark since the last reset.
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Reset zeroes the value and the high-water mark.
func (g *Gauge) Reset() {
	g.mu.Lock()
	g.v, g.max, g.seen = 0, 0, false
	g.mu.Unlock()
}

// Histogram accumulates float observations with an exact sum (never the
// bucket-midpoint approximation): count, sum, min, max, plus sparse
// decade buckets for shape. Observing modelled seconds per operation
// makes the sum directly comparable to aggregate timings.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets map[int]int64 // decade exponent -> count; v falls in decade floor(log10(v))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.buckets = map[int]int64{}
	}
	h.buckets[decade(v)]++
	h.mu.Unlock()
}

// decade returns the bucket exponent of a value: floor(log10(v)),
// clamped for zero/negative/non-finite observations.
func decade(v float64) int {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MinInt32
	}
	d := int(math.Floor(math.Log10(v)))
	if d < -12 {
		d = -12
	}
	if d > 12 {
		d = 12
	}
	return d
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.count, h.sum, h.min, h.max, h.buckets = 0, 0, 0, 0, nil
	h.mu.Unlock()
}

// snapshotValue captures a histogram for export.
func (h *Histogram) snapshot() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	hv := HistogramValue{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if len(h.buckets) > 0 {
		hv.Buckets = map[string]int64{}
		for d, n := range h.buckets {
			// Zero/negative/non-finite observations get an explicit
			// underflow key: "0" would be ambiguous with a decade label
			// and sorts into the middle of the 1e±NN keys.
			key := "underflow"
			if d != math.MinInt32 {
				key = fmt.Sprintf("1e%+03d", d)
			}
			hv.Buckets[key] = n
		}
	}
	return hv
}

// Registry is a concurrency-safe collection of named instruments.
// Instruments are created on first use and live for the registry's
// lifetime, so callers may cache the returned pointers on hot paths.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		histograms:  map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.histograms, name, func() *Histogram { return &Histogram{} })
}

// instrument returns m[name], creating it with mk under mu on first use.
func instrument[T any](mu *sync.RWMutex, m map[string]*T, name string, mk func() *T) *T {
	mu.RLock()
	x := m[name]
	mu.RUnlock()
	if x != nil {
		return x
	}
	mu.Lock()
	defer mu.Unlock()
	if x = m[name]; x == nil {
		x = mk()
		m[name] = x
	}
	return x
}

// GaugeValue is an exported gauge state.
type GaugeValue struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramValue is an exported histogram state. Sum is the exact sum of
// the observations.
type HistogramValue struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// Labeled series appear alongside the unlabeled ones under
// `name{k="v",...}` keys, so one map holds the whole family.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot captures all instruments.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]HistogramValue, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	for name, v := range r.counterVecs {
		v.core.each(func(series string, c *Counter) {
			s.Counters[name+"{"+series+"}"] = c.Value()
		})
	}
	for name, v := range r.gaugeVecs {
		v.core.each(func(series string, g *Gauge) {
			s.Gauges[name+"{"+series+"}"] = GaugeValue{Value: g.Value(), Max: g.Max()}
		})
	}
	return s
}

// Names returns every instrument name, sorted (for stable reports).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	for n := range r.counterVecs {
		names = append(names, n)
	}
	for n := range r.gaugeVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON (map keys are sorted by
// encoding/json, so the output is deterministic given the same state).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// MarshalJSON exports the snapshot.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
