package obs

import (
	"bytes"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

// goldenRegistry builds one registry exercising every instrument kind,
// labeled and unlabeled, including the exposition edge cases: label
// escaping, name sanitization, an underflow histogram bucket, and a
// non-finite gauge.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("dcs.evals").Add(4096)
	r.Counter("disk.read.ops").Add(17)
	cv := r.CounterVec("fault.injected.by_kind", "kind")
	cv.With("transient").Add(3)
	cv.With("torn").Inc()
	r.CounterVec("exec.io.retries.by_array", "array").With(`A"1`).Add(2)

	r.Gauge("exec.buffer.bytes").Set(1 << 20)
	r.Gauge("9starts.with.digit").Set(math.Inf(1))
	r.GaugeVec("pool.depth", "worker").With("0").Set(2)

	h := r.Histogram("io.seconds")
	for _, v := range []float64{0.004, 0.05, 0.05, 200, 0} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden.Check(t, filepath.Join("testdata", "metrics.prom"), buf.Bytes())
}

func TestWritePrometheusInvariants(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Every metric name stays in the exposition alphabet.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name := line
		if strings.HasPrefix(line, "# TYPE ") {
			name = strings.Fields(line)[2]
		} else if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for _, c := range name {
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("metric name %q has %q outside the exposition alphabet", name, c)
			}
		}
	}

	// Histogram buckets are cumulative and end at le="+Inf" == _count.
	var bounds []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `io_seconds_bucket{le="`) {
			bounds = append(bounds, line)
		}
	}
	if len(bounds) == 0 {
		t.Fatalf("no io_seconds buckets in:\n%s", out)
	}
	last := bounds[len(bounds)-1]
	if !strings.Contains(last, `le="+Inf"`) {
		t.Fatalf("last bucket is not +Inf: %s", last)
	}
	if !strings.Contains(out, "io_seconds_count 5") {
		t.Fatalf("missing io_seconds_count 5 in:\n%s", out)
	}

	// One TYPE line per family, before its samples.
	if strings.Count(out, "# TYPE io_seconds ") != 1 {
		t.Fatalf("io_seconds TYPE lines != 1 in:\n%s", out)
	}

	// Label values are escaped.
	if !strings.Contains(out, `array="A\"1"`) {
		t.Fatalf("unescaped label value in:\n%s", out)
	}
}

// TestPromLiveMatchesSnapshot pins the acceptance invariant: the values
// scraped from /metrics equal the end-of-run snapshot's, series by
// series, because both render from the same canonical label keys.
func TestPromLiveMatchesSnapshot(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scraped := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		scraped[line[:i]] = line[i+1:]
	}
	snap := r.Snapshot()
	for name, v := range snap.Counters {
		key := promSnapshotKey(name)
		got, ok := scraped[key]
		if !ok {
			t.Fatalf("snapshot counter %q (prom %q) missing from exposition", name, key)
		}
		if got != strconv.FormatInt(v, 10) {
			t.Fatalf("counter %q: exposition %s != snapshot %d", name, got, v)
		}
	}
}

// promSnapshotKey maps a snapshot key (name or name{labels}) to its
// exposition series name.
func promSnapshotKey(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return promName(name[:i]) + name[i:]
	}
	return promName(name)
}
