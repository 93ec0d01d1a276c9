package obs

// Prometheus text exposition (format version 0.0.4) for the registry,
// so a live run can be scraped while it executes. Counters render as
// counter families, gauges as two gauge families (`name` and
// `name_max`, the high-water mark), and decade-bucket histograms as
// cumulative `_bucket`/`_sum`/`_count` series where each decade d
// contributes the upper bound 10^(d+1) and underflow observations
// (zero/negative/non-finite) fall in an explicit le="0" bucket.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes an instrument name into the Prometheus metric
// name alphabet [a-zA-Z0-9_:] (leading digits are also replaced).
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// promFloat renders a float in the exposition format.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSeries is one sample line: an optional label block and a value.
type promSeries struct {
	labels string // canonical `k="v",...` rendering, "" when unlabeled
	value  string
}

// promFamily is one TYPE block: every series sharing a metric name.
type promFamily struct {
	typ    string // "counter" | "gauge" | "histogram"
	series []promSeries
}

type promFamilies map[string]*promFamily

func (fs promFamilies) add(name, typ, labels, value string) {
	f := fs[name]
	if f == nil {
		f = &promFamily{typ: typ}
		fs[name] = f
	}
	f.series = append(f.series, promSeries{labels: labels, value: value})
}

// promBuckets returns a histogram's cumulative exposition state:
// ascending upper bounds (underflow first, as le="0") with cumulative
// counts, plus the exact count and sum.
func (h *Histogram) promBuckets() (bounds []float64, cumulative []int64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	decades := make([]int, 0, len(h.buckets))
	for d := range h.buckets {
		decades = append(decades, d)
	}
	sort.Ints(decades) // math.MinInt32 (underflow) sorts first
	var cum int64
	for _, d := range decades {
		cum += h.buckets[d]
		if d == math.MinInt32 {
			bounds = append(bounds, 0)
		} else {
			bounds = append(bounds, math.Pow(10, float64(d+1)))
		}
		cumulative = append(cumulative, cum)
	}
	return bounds, cumulative, h.count, h.sum
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, version 0.0.4. Families are sorted by metric
// name and series within a family by label rendering, so the output
// is deterministic given the same registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := promFamilies{}

	r.mu.RLock()
	for name, c := range r.counters {
		fams.add(promName(name), "counter", "", strconv.FormatInt(c.Value(), 10))
	}
	for name, v := range r.counterVecs {
		pn := promName(name)
		v.core.each(func(series string, c *Counter) {
			fams.add(pn, "counter", series, strconv.FormatInt(c.Value(), 10))
		})
	}
	for name, g := range r.gauges {
		pn := promName(name)
		fams.add(pn, "gauge", "", promFloat(g.Value()))
		fams.add(pn+"_max", "gauge", "", promFloat(g.Max()))
	}
	for name, v := range r.gaugeVecs {
		pn := promName(name)
		v.core.each(func(series string, g *Gauge) {
			fams.add(pn, "gauge", series, promFloat(g.Value()))
			fams.add(pn+"_max", "gauge", series, promFloat(g.Max()))
		})
	}
	for name, h := range r.histograms {
		pn := promName(name)
		bounds, cumulative, count, sum := h.promBuckets()
		for i, b := range bounds {
			le := fmt.Sprintf(`le="%s"`, promFloat(b))
			fams.add(pn+"_bucket", "histogram", le, strconv.FormatInt(cumulative[i], 10))
		}
		fams.add(pn+"_bucket", "histogram", `le="+Inf"`, strconv.FormatInt(count, 10))
		fams.add(pn+"_sum", "histogram", "", promFloat(sum))
		fams.add(pn+"_count", "histogram", "", strconv.FormatInt(count, 10))
	}
	r.mu.RUnlock()

	baseOf := func(n string) string {
		if fams[n].typ != "histogram" {
			return n
		}
		for _, suf := range []string{"_bucket", "_count", "_sum"} {
			n = strings.TrimSuffix(n, suf)
		}
		return n
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	// Sort by base family first so a histogram's _bucket/_sum/_count
	// stay one uninterrupted group (the format requires it; a plain
	// name sort would let io_seconds_by_op_* split io_seconds_*).
	sort.Slice(names, func(a, b int) bool {
		ba, bb := baseOf(names[a]), baseOf(names[b])
		if ba != bb {
			return ba < bb
		}
		return names[a] < names[b]
	})

	bw := bufio.NewWriter(w)
	typed := map[string]bool{} // histogram _bucket/_sum/_count share one TYPE line
	for _, n := range names {
		f := fams[n]
		base := baseOf(n)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, f.typ)
		}
		if f.typ != "histogram" {
			// Histogram series are built in ascending-le order per label
			// set already; a lexicographic sort would hoist le="+Inf".
			sort.Slice(f.series, func(a, b int) bool { return f.series[a].labels < f.series[b].labels })
		}
		for _, s := range f.series {
			if s.labels == "" {
				fmt.Fprintf(bw, "%s %s\n", n, s.value)
			} else {
				fmt.Fprintf(bw, "%s{%s} %s\n", n, s.labels, s.value)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: prometheus exposition: %w", err)
	}
	return nil
}
