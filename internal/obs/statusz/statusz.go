// Package statusz serves the live telemetry plane over HTTP: the
// Prometheus exposition of an obs.Registry (/metrics), a liveness
// probe (/healthz), a run-status page with the flight recorder's most
// recent events (/statusz), and the net/http/pprof profilers
// (/debug/pprof/). The server binds synchronously — bind errors
// surface at Start — and shuts down gracefully when the start context
// is cancelled or Shutdown is called, so no listener outlives its run.
package statusz

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options configure what the server exposes. Every field is optional.
type Options struct {
	// Registry backs /metrics and the /statusz instrument count.
	Registry *obs.Registry
	// Ring supplies the recent events shown on /statusz.
	Ring *obs.Ring
	// Version is reported on /statusz (e.g. cliutil.VersionString()).
	Version string
}

// ringTail caps the events shown on /statusz.
const ringTail = 64

// Server is a live status server bound to one listener.
type Server struct {
	opt     Options
	ln      net.Listener
	srv     *http.Server
	started time.Time

	mu       sync.Mutex
	phase    string
	serveErr error
	closing  bool

	done chan struct{}
}

// Start binds addr and serves the status endpoints until ctx is
// cancelled (graceful shutdown) or Shutdown is called. The bind is
// synchronous: a bad address fails here, not in a background goroutine.
func Start(ctx context.Context, addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statusz: listen %s: %w", addr, err)
	}
	s := &Server{
		opt:     opt,
		ln:      ln,
		started: time.Now(),
		phase:   "starting",
		done:    make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.serve()
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = s.Shutdown(grace)
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// serve runs the accept loop and records its terminal error.
func (s *Server) serve() {
	err := s.srv.Serve(s.ln)
	s.mu.Lock()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.serveErr = err
	}
	s.mu.Unlock()
	close(s.done)
}

// Shutdown stops the server gracefully: the listener closes, in-flight
// requests drain (bounded by ctx), and the serve goroutine exits.
// Idempotent; returns the accept loop's error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	closing := s.closing
	s.closing = true
	s.mu.Unlock()
	if !closing {
		if err := s.srv.Shutdown(ctx); err != nil {
			<-s.done
			return fmt.Errorf("statusz: shutdown: %w", err)
		}
	}
	<-s.done
	return s.Err()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Done closes when the serve loop has exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Err returns the accept loop's terminal error, if any.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serveErr != nil {
		return fmt.Errorf("statusz: serve: %w", s.serveErr)
	}
	return nil
}

// SetPhase labels the run's current phase on /statusz ("staging",
// "running", "scrub", "done", ...).
func (s *Server) SetPhase(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

// Phase returns the current phase label.
func (s *Server) Phase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.opt.Registry != nil {
		_ = s.opt.Registry.WritePrometheus(w)
	}
}

// statusPayload is the /statusz JSON document.
type statusPayload struct {
	Binary        string      `json:"binary"`
	Version       string      `json:"version,omitempty"`
	PID           int         `json:"pid"`
	Phase         string      `json:"phase"`
	StartMs       int64       `json:"start_ms"`
	UptimeSeconds float64     `json:"uptime_s"`
	ListenAddr    string      `json:"listen_addr"`
	Instruments   int         `json:"instruments"`
	Events        []obs.Event `json:"events,omitempty"` // most recent last
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	p := statusPayload{
		Binary:        filepath.Base(os.Args[0]),
		Version:       s.opt.Version,
		PID:           os.Getpid(),
		Phase:         s.Phase(),
		StartMs:       s.started.UnixMilli(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		ListenAddr:    s.Addr(),
	}
	if s.opt.Registry != nil {
		p.Instruments = len(s.opt.Registry.Names())
	}
	if s.opt.Ring != nil {
		ev := s.opt.Ring.Events()
		if len(ev) > ringTail {
			ev = ev[len(ev)-ringTail:]
		}
		p.Events = ev
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}
