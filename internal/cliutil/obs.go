package cliutil

// Shared observability surface of the command-line tools: Chrome-trace
// and metrics-snapshot export, CPU/heap profiles, the structured event
// log with its in-memory flight recorder, periodic metrics sampling,
// the live status server (-listen: /metrics, /healthz, /statusz,
// /debug/pprof), and the -version flag. Each binary registers the
// flags it wants, calls Start after flag.Parse, and defers Finish.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/statusz"
)

// ringSize bounds the flight recorder: enough to explain an incident,
// small enough to hold resident for the whole run.
const ringSize = 512

// Obs bundles the observability flags and their lifecycle.
type Obs struct {
	TraceOut   string
	MetricsOut string
	CPUProfile string
	MemProfile string

	Listen       string
	Linger       time.Duration
	LogOut       string
	LogLevel     string
	SampleOut    string
	SamplePeriod time.Duration

	registry   *obs.Registry
	tracer     *obs.Tracer
	cpuOut     *os.File
	eventLog   *obs.Log
	ring       *obs.Ring
	logSink    *obs.WriterSink
	logFile    *os.File // nil when LogOut is "-" (stderr)
	sampler    *obs.Sampler
	sampleFile *os.File
	server     *statusz.Server
	cancel     context.CancelFunc
}

// RegisterObs registers the observability flags (-trace-out,
// -metrics-out, -cpuprofile, -memprofile, -listen, -listen-linger,
// -log-out, -log-level, -sample-out, -sample-period) on the default
// FlagSet.
func RegisterObs() *Obs { return RegisterObsOn(flag.CommandLine) }

// RegisterObsOn is RegisterObs on an explicit FlagSet.
func RegisterObsOn(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.TraceOut, "trace-out", "", "write the run's timeline as Chrome Trace Event JSON to this file")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a metrics snapshot as JSON to this file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.Listen, "listen", "", "serve live status endpoints (/metrics, /healthz, /statusz, /debug/pprof) on this address (e.g. localhost:9464)")
	fs.DurationVar(&o.Linger, "listen-linger", 0, "with -listen: keep serving this long after the run finishes, so scrapers can read the final state")
	fs.StringVar(&o.LogOut, "log-out", "", "append the structured event log as JSON lines to this file (\"-\" for stderr)")
	fs.StringVar(&o.LogLevel, "log-level", "info", "minimum event log level: debug, info, warn, or error")
	fs.StringVar(&o.SampleOut, "sample-out", "", "write periodic metrics samples as JSON lines to this file")
	fs.DurationVar(&o.SamplePeriod, "sample-period", time.Second, "interval between -sample-out rows")
	return o
}

// Registry returns the metrics registry to thread through the run (nil
// unless Start allocated one for -metrics-out, -listen, or
// -sample-out), so callers can skip the wiring when nothing will be
// exported.
func (o *Obs) Registry() *obs.Registry { return o.registry }

// Tracer returns the span tracer to thread through the run (nil unless
// -trace-out was given and Start ran).
func (o *Obs) Tracer() *obs.Tracer { return o.tracer }

// Log returns the structured event log to thread through the run (nil
// unless -log-out or -listen was given and Start ran; a nil *obs.Log
// is a safe no-op, so callers pass it unconditionally).
func (o *Obs) Log() *obs.Log { return o.eventLog }

// Server returns the live status server (nil unless -listen was given
// and Start ran).
func (o *Obs) Server() *statusz.Server { return o.server }

// SetPhase labels the run's current phase on /statusz and in the
// event log. Safe to call when no server or log is active.
func (o *Obs) SetPhase(phase string) {
	if o.server != nil {
		o.server.SetPhase(phase)
	}
	o.eventLog.Debug("obs", "phase", obs.F("phase", phase))
}

// newRunID returns a short random hex ID stamped on every event of
// this process's run.
func newRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("pid%d", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// Start allocates the requested sinks, begins CPU profiling, starts
// the sampler, and binds the status server. Call it after flag.Parse.
func (o *Obs) Start() error {
	level, err := obs.ParseLevel(o.LogLevel)
	if err != nil {
		return fmt.Errorf("cliutil: -log-level: %w", err)
	}
	if o.TraceOut != "" {
		o.tracer = obs.NewTracer()
	}
	if o.MetricsOut != "" || o.Listen != "" || o.SampleOut != "" {
		o.registry = obs.NewRegistry()
	}
	var sinks []obs.Sink
	if o.LogOut != "" {
		var w io.Writer = os.Stderr
		if o.LogOut != "-" {
			f, err := os.Create(o.LogOut)
			if err != nil {
				return fmt.Errorf("cliutil: -log-out: %w", err)
			}
			o.logFile, w = f, f
		}
		o.logSink = obs.NewWriterSink(w)
		sinks = append(sinks, o.logSink)
	}
	if o.Listen != "" || o.LogOut != "" {
		o.ring = obs.NewRing(ringSize)
		sinks = append(sinks, o.ring)
	}
	o.eventLog = obs.NewLog(level, obs.Tee(sinks...)).WithRun(newRunID())
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		o.cpuOut = f
	}
	ctx, cancel := context.WithCancel(context.Background())
	o.cancel = cancel
	if o.SampleOut != "" {
		f, err := os.Create(o.SampleOut)
		if err != nil {
			return fmt.Errorf("cliutil: -sample-out: %w", err)
		}
		o.sampleFile = f
		o.sampler = obs.NewSampler(o.registry, f, o.SamplePeriod)
		o.sampler.Start(ctx)
	}
	if o.Listen != "" {
		srv, err := statusz.Start(ctx, o.Listen, statusz.Options{
			Registry: o.registry,
			Ring:     o.ring,
			Version:  VersionString(),
		})
		if err != nil {
			cancel()
			return fmt.Errorf("cliutil: status server: %w", err)
		}
		o.server = srv
		srv.SetPhase("running")
		o.eventLog.Info("obs", "server.listen", obs.F("addr", srv.Addr()))
	}
	return nil
}

// Finish stops profiling, writes every requested artifact, flushes the
// event log and sampler, lingers the status server if asked, and shuts
// everything down, returning the first error. Safe to call when Start
// was never reached.
func (o *Obs) Finish() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if o.cpuOut != nil {
		pprof.StopCPUProfile()
		keep(o.cpuOut.Close())
		o.cpuOut = nil
	}
	if o.MemProfile != "" {
		f, err := os.Create(o.MemProfile)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // up-to-date allocation statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	if o.tracer != nil {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			keep(err)
		} else {
			keep(o.tracer.WriteChromeTrace(f))
			keep(f.Close())
		}
	}
	if o.sampler != nil {
		keep(o.sampler.Stop()) // final row before the snapshot is written
		o.sampler = nil
	}
	if o.sampleFile != nil {
		keep(o.sampleFile.Close())
		o.sampleFile = nil
	}
	if o.registry != nil && o.MetricsOut != "" {
		f, err := os.Create(o.MetricsOut)
		if err != nil {
			keep(err)
		} else {
			keep(o.registry.WriteJSON(f))
			keep(f.Close())
		}
	}
	o.eventLog.Info("obs", "run.finish")
	if o.server != nil {
		// Counters no longer move: a scrape during the linger window
		// matches the -metrics-out snapshot exactly.
		o.server.SetPhase("done")
		if o.Linger > 0 {
			select {
			case <-time.After(o.Linger):
			case <-o.server.Done():
			}
		}
		grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(o.server.Shutdown(grace))
		cancel()
		o.server = nil
	}
	if o.cancel != nil {
		o.cancel()
		o.cancel = nil
	}
	if o.logSink != nil {
		keep(o.logSink.Err())
		o.logSink = nil
	}
	if o.logFile != nil {
		keep(o.logFile.Close())
		o.logFile = nil
	}
	return first
}

// Fatal reports a fatal run error: it logs an error event, dumps the
// flight recorder to stderr for post-mortem, flushes every artifact
// via Finish, and exits 1.
func (o *Obs) Fatal(err error) {
	o.eventLog.Error("obs", "run.fatal", obs.F("error", err))
	//lint:ignore obslog terminal fatal-path reporting is the CLI surface itself
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	if o.ring != nil && o.ring.Len() > 0 {
		//lint:ignore obslog post-mortem ring dump must reach the operator even when sinks are gone
		fmt.Fprintf(os.Stderr, "-- flight recorder (last %d events) --\n", o.ring.Len())
		_ = o.ring.WriteJSONL(os.Stderr)
	}
	if ferr := o.Finish(); ferr != nil {
		//lint:ignore obslog terminal fatal-path reporting is the CLI surface itself
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), ferr)
	}
	os.Exit(1)
}

// VersionFlag registers -version on the default FlagSet and returns a
// function to call after flag.Parse: when the flag was given it prints
// the binary name and version, then exits.
func VersionFlag() func() { return VersionFlagOn(flag.CommandLine) }

// VersionFlagOn is VersionFlag on an explicit FlagSet.
func VersionFlagOn(fs *flag.FlagSet) func() {
	v := fs.Bool("version", false, "print version information and exit")
	return func() {
		if !*v {
			return
		}
		fmt.Printf("%s %s\n", filepath.Base(os.Args[0]), VersionString())
		os.Exit(0)
	}
}

// VersionString reports the module version and, when the binary was built
// from a version-controlled tree, the embedded VCS revision.
func VersionString() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		return ver + " (" + rev + dirty + ")"
	}
	return ver
}
