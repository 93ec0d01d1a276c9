package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// selfCheck runs the workload's first pass twice with one seed and fails
// unless every count and deterministic metric repeats exactly.
func selfCheck(w workload, cfg runConfig) error {
	cfg.seconds, cfg.trace, cfg.outDir = 0, false, ""
	var runs [2]*runResult
	for i := range runs {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed: %v", i, res.Failed, res.Attempted, res.Failures)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if a.Attempted != b.Attempted {
		return fmt.Errorf("attempted %d, then %d", a.Attempted, b.Attempted)
	}
	names := make([]string, 0, len(a.Counts))
	for n := range a.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.Counts[n] != b.Counts[n] {
			return fmt.Errorf("%s read %v, then %v", n, a.Counts[n], b.Counts[n])
		}
	}
	if len(a.Counts) != len(b.Counts) {
		return fmt.Errorf("%d counts, then %d", len(a.Counts), len(b.Counts))
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// benchmark contract measures spread with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// loadRuns reads a results.jsonl file and groups the untraced runs'
// metric values by workload and metric name.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, the medians of
// two sets of runs, their ratio (base: the first set) and a verdict
// against the metric's bound: ok, worse, or unresolved when the first
// set's own spread is wider than the bound and the sets overlap. It
// reports whether nothing was worse.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "b/a", "spread a", "bound", "verdict")
	allOK := true
	for _, wl := range workloadNames {
		for _, m := range bm.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worsening := (mb - ma) / ma
			if m.Better == "higher" {
				worsening = -worsening
			}
			spread := 0.0
			if len(va) >= 2 {
				q1, q3 := quartiles(va)
				spread = (q3 - q1) / ma
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(vb, va, m.Better):
				verdict = "unresolved"
			case spread <= m.Bound && worsening > m.Bound:
				verdict = "worse"
				allOK = false
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %9.4f %7.2f%% %6.1f%%  %s\n",
				wl, m.Name, ma, mb, mb/ma, 100*spread, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintln(w, "b/a has the first file's median as its base; spread is that file's interquartile range over its median.")
	return allOK, nil
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(b, a []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
