package obs

// Labeled instrument families. A vec is a named family of instruments
// keyed by a fixed set of label names; each distinct combination of
// label values materializes one child instrument on first use. The
// child key is the canonical Prometheus label rendering (sorted
// `k="v"` pairs with escaped values), which makes the snapshot keys,
// the /metrics exposition, and the family's internal map all agree on
// one series identity.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// labelEscaper escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelKey renders label pairs as the canonical series identity:
// `k1="v1",k2="v2"` with keys sorted and values escaped.
func labelKey(keys, values []string) string {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var b strings.Builder
	for j, i := range idx {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(keys[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// maxVecChildren caps the children of one family. Every distinct label
// tuple is a series that lives for the registry's lifetime, so a label
// value drawn from an unbounded set (an error message, a Sprintf) would
// grow the registry without limit. Real families are keyed by plan
// arrays, ring shards (at most 64) and fault kinds: far below the cap.
const maxVecChildren = 4096

// vecCore is the shared child management of the two vec kinds.
type vecCore[T any] struct {
	name     string
	keys     []string
	mu       sync.RWMutex
	children map[string]*T
}

func newVecCore[T any](name string, keys []string) vecCore[T] {
	for _, k := range keys {
		if !validLabelName(k) {
			panic(fmt.Sprintf("obs: %s label name %q is not a valid identifier", name, k))
		}
	}
	return vecCore[T]{name: name, keys: keys, children: map[string]*T{}}
}

// validLabelName reports whether k matches the Prometheus label-name
// grammar [a-zA-Z_][a-zA-Z0-9_]*. Label names are embedded unescaped
// in the series identity and the exposition format, so anything looser
// would corrupt both; registration is programmer error territory, so
// violations panic like a mismatched label count does.
func validLabelName(k string) bool {
	if k == "" {
		return false
	}
	for i, c := range k {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// with returns the child for the given label values (positional, in
// registration order), creating it on first use. Children live for the
// registry's lifetime, so hot paths may cache the returned pointer. A
// new child past maxVecChildren panics: label values must come from a
// bounded set.
func (v *vecCore[T]) with(values []string) *T {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: %s wants %d label values %v, got %d", v.name, len(v.keys), v.keys, len(values)))
	}
	k := labelKey(v.keys, values)
	v.mu.RLock()
	c := v.children[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[k]; c == nil {
		if len(v.children) >= maxVecChildren {
			panic(fmt.Sprintf("obs: %s exceeds %d label combinations at %s; label values must come from a bounded set", v.name, maxVecChildren, k))
		}
		c = new(T)
		v.children[k] = c
	}
	return c
}

// each calls f for every child under the read lock, in sorted series
// order (deterministic exports).
func (v *vecCore[T]) each(f func(series string, child *T)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*T, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	for i, k := range keys {
		f(k, children[i])
	}
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ core vecCore[Counter] }

// With returns the counter for the given label values (positional, in
// the order the labels were registered).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.core.with(values)
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ core vecCore[Gauge] }

// With returns the gauge for the given label values (positional, in
// the order the labels were registered).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.core.with(values)
}

// CounterVec returns the named counter family, creating it on first
// use. The label set is fixed by the first registration; later calls
// return the existing family regardless of the labels argument.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.counterVecs, name, func() *CounterVec {
		return &CounterVec{core: newVecCore[Counter](name, append([]string(nil), labels...))}
	})
}

// GaugeVec returns the named gauge family, creating it on first use.
// The label set is fixed by the first registration.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.gaugeVecs, name, func() *GaugeVec {
		return &GaugeVec{core: newVecCore[Gauge](name, append([]string(nil), labels...))}
	})
}
