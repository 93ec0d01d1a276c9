package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObsTelemetryPlane drives the full telemetry plane of one CLI
// run: a status server on an ephemeral port, a JSONL event log, a
// sampler, and a metrics snapshot — then checks the acceptance
// invariant that the live /metrics scrape agrees with the end-of-run
// snapshot.
func TestObsTelemetryPlane(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObsOn(fs)
	if err := fs.Parse([]string{
		"-listen", "127.0.0.1:0",
		"-log-out", filepath.Join(dir, "events.jsonl"),
		"-log-level", "debug",
		"-sample-out", filepath.Join(dir, "samples.jsonl"),
		"-metrics-out", filepath.Join(dir, "metrics.json"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	reg := o.Registry()
	if reg == nil {
		t.Fatal("no registry despite -metrics-out")
	}
	reg.Counter("dcs.evals").Add(123)
	reg.CounterVec("fault.injected.by_kind", "kind").With("torn").Add(2)
	o.SetPhase("running-test")
	o.Log().WithScenario("unit").Info("dcs", "solve.final", obs.F("best", 4.2))

	addr := o.Server().Addr()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	live := get("/metrics")
	if !strings.Contains(live, "dcs_evals 123") ||
		!strings.Contains(live, `fault_injected_by_kind{kind="torn"} 2`) {
		t.Fatalf("/metrics missing series:\n%s", live)
	}
	statusz := get("/statusz")
	if !strings.Contains(statusz, `"running-test"`) || !strings.Contains(statusz, "solve.final") {
		t.Fatalf("/statusz missing phase or ring events:\n%s", statusz)
	}

	if err := o.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// The live scrape equals the end-of-run snapshot, series by series.
	raw, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["dcs.evals"] != 123 ||
		snap.Counters[`fault.injected.by_kind{kind="torn"}`] != 2 {
		t.Fatalf("snapshot disagrees with live scrape: %v", snap.Counters)
	}

	// The event log round-trips, carries one run ID, and holds the
	// lifecycle events around the payload event.
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e.Run == "" || e.Run != events[0].Run {
			t.Fatalf("event %+v lacks the shared run ID", e)
		}
		names[e.System+"/"+e.Name] = true
	}
	for _, want := range []string{"obs/server.listen", "obs/phase", "dcs/solve.final", "obs/run.finish"} {
		if !names[want] {
			t.Fatalf("event log missing %s; have %v", want, names)
		}
	}

	// The sampler wrote at least its end-of-run row.
	rows, err := os.ReadFile(filepath.Join(dir, "samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rows), `"dcs.evals":123`) {
		t.Fatalf("sample rows lack final counters: %s", rows)
	}

	// Everything shut down: the port no longer accepts.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("status server still accepting after Finish")
	}
}

// TestObsStartBadListen pins the satellite fix: a bad -listen address
// fails Start synchronously instead of dying in a background goroutine.
func TestObsStartBadListen(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObsOn(fs)
	if err := fs.Parse([]string{"-listen", "256.256.256.256:http"}); err != nil {
		t.Fatal(err)
	}
	err := o.Start()
	if err == nil {
		o.Finish()
		t.Fatal("bad -listen did not fail Start")
	}
	if !strings.Contains(err.Error(), "cliutil: status server") {
		t.Fatalf("error %v lacks attribution", err)
	}
}

func TestObsBadLogLevel(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObsOn(fs)
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bad -log-level error = %v", err)
	}
}
