package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var endToEnd = []string{"setup_s", "e2e_wall_s", "synth_wall_s", "exec_wall_s", "plan_model_io_s", "model_fit_ratio"}

// Every workload runs at -quick sizes, untraced and traced: all
// operations pass, every metric the contract promises is there, the
// traced pass builds the plan the untraced pass built, and the trace
// file parses.
func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				w, err := newWorkload(name, true, out)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runWorkload(w, runConfig{seed: 3, quick: true, trace: traced, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, res.Failures)
				}
				want := endToEnd
				if traced {
					want = nil
					for _, row := range ledger {
						want = append(want, row.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m)
					} else if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
					}
				}
				if err := report(io.Discard, res, out); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Workload string
				Spans    []span
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != name || len(tf.Spans) == 0 {
				t.Errorf("trace file names %q with %d spans", tf.Workload, len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
			runs, err := loadRuns(filepath.Join(out, "results.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(runs[name]["e2e_wall_s"]); got != 1 {
				t.Errorf("results.jsonl holds %d untraced runs of %s, want 1", got, name)
			}
			if entries, _ := os.ReadDir(filepath.Join(out, "scratch")); len(entries) != 0 {
				t.Errorf("scratch directory not emptied: %d entries left", len(entries))
			}
		})
	}
}

func TestSelfCheckQuick(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := selfCheck(w, runConfig{seed: 5, quick: true}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BENCHMARK.json must name what the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	names = nil
	for _, m := range bm.EndToEnd {
		names = append(names, m.Name)
	}
	if strings.Join(names, " ") != strings.Join(endToEnd, " ") {
		t.Errorf("end_to_end %v, program reports %v", names, endToEnd)
	}
	if len(bm.PerLayer) != len(ledger) {
		t.Fatalf("per_layer has %d rows, the ledger %d", len(bm.PerLayer), len(ledger))
	}
	for i, row := range ledger {
		if bm.PerLayer[i] != struct{ Name, Unit, Better string }{row.name, row.unit, row.better} {
			t.Errorf("per_layer[%d] = %v, ledger has %v", i, bm.PerLayer[i], row)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, e2e, synth, exec []float64) string {
		var buf bytes.Buffer
		for i := range e2e {
			rec, _ := json.Marshal(runResult{Workload: "synth-paper", Metrics: map[string]metric{
				"e2e_wall_s": {e2e[i], "s"}, "synth_wall_s": {synth[i], "s"}, "exec_wall_s": {exec[i], "s"},
			}})
			buf.Write(append(rec, '\n'))
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bm := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bm, []byte(`{"end_to_end": [
		{"name": "e2e_wall_s", "unit": "s", "better": "lower", "bound": 0.08},
		{"name": "synth_wall_s", "unit": "s", "better": "lower", "bound": 0.08},
		{"name": "exec_wall_s", "unit": "s", "better": "lower", "bound": 0.08}]}`), 0o644)
	// e2e: 3 % slower, steady → ok. synth: 20 % slower, steady → worse.
	// exec: the parent's own runs spread by 40 % and the sets overlap → unresolved.
	a := write("a.jsonl", []float64{1, 1.01, 0.99, 1}, []float64{2, 2.01, 1.99, 2}, []float64{1, 1.4, 0.8, 1.2})
	b := write("b.jsonl", []float64{1.03, 1.04, 1.02, 1.03}, []float64{2.4, 2.41, 2.39, 2.4}, []float64{1.1, 1, 1.2, 1.1})
	var out bytes.Buffer
	ok, err := compareFiles(&out, bm, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a 20 % regression beyond an 8 % bound was not reported")
	}
	for metric, verdict := range map[string]string{"e2e_wall_s": "ok", "synth_wall_s": "worse", "exec_wall_s": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
}
