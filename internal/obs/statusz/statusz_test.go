package statusz

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/leaktest"
	"repro/internal/obs"
)

// get fetches a path from the server and returns status and body.
func get(t *testing.T, s *Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", s.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dcs.evals").Add(42)
	reg.CounterVec("fault.injected.by_kind", "kind").With("torn").Inc()
	ring := obs.NewRing(16)
	l := obs.NewLog(obs.LevelInfo, ring).WithRun("r1")
	l.Info("dcs", "solve.final", obs.F("best", 1.5))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	noLeak := leaktest.Check(t)
	s, err := Start(ctx, "127.0.0.1:0", Options{
		Registry: reg,
		Ring:     ring,
		Version:  "test-1",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.SetPhase("running")

	code, body, _ := get(t, s, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "dcs_evals 42") ||
		!strings.Contains(body, `fault_injected_by_kind{kind="torn"} 1`) {
		t.Fatalf("/metrics missing series:\n%s", body)
	}

	code, body, _ = get(t, s, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var p struct {
		Phase   string      `json:"phase"`
		Version string      `json:"version"`
		Events  []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/statusz decode: %v\n%s", err, body)
	}
	if p.Phase != "running" || p.Version != "test-1" {
		t.Fatalf("/statusz = %+v", p)
	}
	if len(p.Events) != 1 || p.Events[0].Name != "solve.final" || p.Events[0].Run != "r1" {
		t.Fatalf("/statusz events = %+v", p.Events)
	}

	code, _, _ = get(t, s, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	grace, gcancel := context.WithTimeout(context.Background(), time.Second)
	defer gcancel()
	if err := s.Shutdown(grace); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown, not a cancel, stopped the server: its serve loop and its
	// context watcher are both gone.
	noLeak()
}

func TestServerBadAddr(t *testing.T) {
	if _, err := Start(context.Background(), "definitely-not-an-addr:xx", Options{}); err == nil {
		t.Fatal("bad address did not fail at Start")
	} else if !strings.Contains(err.Error(), "statusz: listen") {
		t.Fatalf("error %v lacks attribution", err)
	}
}

// TestServerCtxCancelShutdown pins the acceptance invariant: cancelling
// the start context shuts the server down cleanly — the listener closes
// and the serve goroutine exits — with no leaked accept loop.
func TestServerCtxCancelShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	noLeak := leaktest.Check(t)
	s, err := Start(ctx, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Fatalf("pre-cancel /healthz = %d", code)
	}
	cancel()
	// Every goroutine the server started, and the client connection of
	// the request above, ends without a Shutdown call.
	noLeak()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after context cancel")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("serve error after graceful shutdown: %v", err)
	}
	// The port is released: a fresh request must fail. Drop the client's
	// pooled keep-alive connection from the pre-cancel request first:
	// Done fires when the accept loop exits, while Shutdown may still be
	// draining that connection, so reusing it would not reach the port.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", s.Addr())); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	// Shutdown after the fact stays idempotent.
	grace, gcancel := context.WithTimeout(context.Background(), time.Second)
	defer gcancel()
	if err := s.Shutdown(grace); err != nil {
		t.Fatalf("post-cancel Shutdown: %v", err)
	}
}
