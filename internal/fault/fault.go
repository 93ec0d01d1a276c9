// Package fault provides a deterministic, seeded fault-injecting wrapper
// around any disk.Backend. It composes with both the cost-only/data
// simulator (disk.Sim) and the real file store (disk.FileStore). It takes
// concurrent section calls, drawing the schedule in arrival order; the
// execution engine makes one call at a time in program order under either
// schedule, so its fault schedule repeats exactly.
//
// Faults follow a reproducible schedule derived from (seed, global
// operation ordinal): the same configuration over the same operation
// sequence injects exactly the same faults, which is what makes chaos
// tests assertable. Injected errors are typed (*disk.IOError), so the
// executor's retry/recovery machinery classifies them exactly like real
// storage faults.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/disk"
	"repro/internal/obs"
)

// Sentinel causes carried by injected *disk.IOError values. Use
// errors.Is against these to distinguish injected faults from real ones.
var (
	// ErrInjected is the cause of an injected transient fault.
	ErrInjected = errors.New("fault: injected transient fault")
	// ErrTorn is the cause of an injected torn (short) write: a
	// prefix of the section reached the backend before the fault.
	ErrTorn = errors.New("fault: injected torn write")
	// ErrPersistent is the cause of an injected persistent fault.
	ErrPersistent = errors.New("fault: injected persistent fault")
)

// Config is the fault schedule. All probabilities are evaluated
// deterministically from Seed and the global operation ordinal.
type Config struct {
	// Seed selects the schedule; the same seed reproduces it.
	Seed uint64
	// Rate is the per-operation probability of a transient fault.
	Rate float64
	// TornRate is the per-write probability of a torn write: a
	// prefix of the section is written, then a transient error is
	// returned. Reads are unaffected.
	TornRate float64
	// LatencyRate is the per-operation probability of a latency
	// spike of LatencySeconds (recorded, no error).
	LatencyRate float64
	// LatencySeconds is the modelled size of one latency spike.
	LatencySeconds float64
	// BrownoutAfter, when > 0, opens a persistent brownout window:
	// every operation with ordinal in [BrownoutAfter,
	// BrownoutAfter+BrownoutOps) pays LatencySeconds of modelled
	// latency without erroring — a slow-but-alive gray failure. Each
	// ordinal is consumed once, so a restart that replays past the
	// window heals after BrownoutOps slow operations, like the
	// persistent-failure window.
	BrownoutAfter int64
	// BrownoutOps is the width of the brownout window; values < 1
	// mean 1.
	BrownoutOps int64
	// MaxConsecutive caps how many transient/torn faults may be
	// injected back to back, so a bounded retry policy is always
	// sufficient to make progress. 0 means the default of 2.
	MaxConsecutive int
	// PersistentAfter, when > 0, opens a persistent-fault window:
	// operations with ordinal in [PersistentAfter,
	// PersistentAfter+PersistentOps) fail with a non-retryable
	// error and do not touch the backend. Each ordinal is consumed
	// once, so a restart that replays past the window heals after
	// PersistentOps failures.
	PersistentAfter int64
	// PersistentOps is the width of the persistent window; values
	// < 1 mean 1.
	PersistentOps int64
	// BitFlipRate is the per-read probability of flipping one stored
	// bit beneath the backend's checksum layer before the read — bit
	// rot. The read then fails verification (disk.IntegrityError), so
	// detection is immediate and attributable. Requires a backend whose
	// arrays implement disk.BitFlipper; silently skipped otherwise.
	BitFlipRate float64
	// LostRate is the per-write probability of a lost write: the
	// operation reports success and the checksum index advances, but
	// the medium keeps the previous bytes. Requires disk.SilentWriter.
	LostRate float64
	// SilentTornRate is the per-write probability of a torn write that
	// reports success: only the leading half of the section's rows
	// persist, while the whole write is acknowledged and indexed.
	// Requires disk.SilentWriter.
	SilentTornRate float64
	// Shard restricts the schedule to one shard of a replicated data
	// plane. The zero value targets every shard; a positive value K+1
	// targets only shard index K (the spec syntax "shard=K" is 0-based,
	// the +1 offset keeps the zero Config untargeted). Backends that are
	// not sharded ignore the field.
	Shard int
}

// TargetsShard reports whether the schedule applies to shard index i
// (0-based). An untargeted schedule applies everywhere.
func (c Config) TargetsShard(i int) bool {
	return c.Shard == 0 || c.Shard == i+1
}

func (c Config) maxConsecutive() int {
	if c.MaxConsecutive <= 0 {
		return 2
	}
	return c.MaxConsecutive
}

func (c Config) persistentOps() int64 {
	if c.PersistentOps < 1 {
		return 1
	}
	return c.PersistentOps
}

func (c Config) brownoutOps() int64 {
	if c.BrownoutOps < 1 {
		return 1
	}
	return c.BrownoutOps
}

// String renders the schedule in the -faults flag syntax.
func (c Config) String() string {
	s := fmt.Sprintf("seed=%d,rate=%g", c.Seed, c.Rate)
	if c.TornRate > 0 {
		s += fmt.Sprintf(",torn=%g", c.TornRate)
	}
	if c.LatencyRate > 0 {
		s += fmt.Sprintf(",latency=%g,latsec=%g", c.LatencyRate, c.LatencySeconds)
	} else if c.BrownoutAfter > 0 && c.LatencySeconds > 0 {
		// A brownout needs the spike size even without a latency rate.
		s += fmt.Sprintf(",latsec=%g", c.LatencySeconds)
	}
	if c.BrownoutAfter > 0 {
		s += fmt.Sprintf(",latwindow=%d,latwindowops=%d", c.BrownoutAfter, c.brownoutOps())
	}
	if c.PersistentAfter > 0 {
		s += fmt.Sprintf(",persistent=%d,persistentops=%d", c.PersistentAfter, c.persistentOps())
	}
	if c.MaxConsecutive > 0 {
		s += fmt.Sprintf(",maxconsec=%d", c.MaxConsecutive)
	}
	if c.BitFlipRate > 0 {
		s += fmt.Sprintf(",bitflip=%g", c.BitFlipRate)
	}
	if c.LostRate > 0 {
		s += fmt.Sprintf(",lost=%g", c.LostRate)
	}
	if c.SilentTornRate > 0 {
		s += fmt.Sprintf(",silenttorn=%g", c.SilentTornRate)
	}
	if c.Shard > 0 {
		s += fmt.Sprintf(",shard=%d", c.Shard-1)
	}
	return s
}

// Counts summarizes what the injector actually did.
type Counts struct {
	Ops            int64   // section operations seen
	Transient      int64   // transient faults injected (excl. torn)
	Persistent     int64   // persistent faults injected
	Torn           int64   // torn writes injected
	LatencySpikes  int64   // latency spikes injected
	LatencySeconds float64 // total modelled spike seconds
	BitFlips       int64   // silent bit flips applied
	LostWrites     int64   // silent lost writes applied
	SilentTorn     int64   // silent torn writes applied
}

// Faults is the total number of injected errors of any kind. Silent
// corruptions are not errors; see Silent.
func (c Counts) Faults() int64 { return c.Transient + c.Persistent + c.Torn }

// Silent is the total number of silent corruptions applied: damage the
// injector planted without returning an error, detectable only by the
// backend's checksum verification.
func (c Counts) Silent() int64 { return c.BitFlips + c.LostWrites + c.SilentTorn }

func (c Counts) String() string {
	s := fmt.Sprintf("ops=%d transient=%d torn=%d persistent=%d latency=%d (%.3fs)",
		c.Ops, c.Transient, c.Torn, c.Persistent, c.LatencySpikes, c.LatencySeconds)
	if c.Silent() > 0 {
		s += fmt.Sprintf(" silent: bitflip=%d lost=%d silenttorn=%d", c.BitFlips, c.LostWrites, c.SilentTorn)
	}
	return s
}

// Injector is a disk.Backend whose arrays inject faults per a Config
// schedule. Wrap one around any backend with Wrap.
type Injector struct {
	inner disk.Backend
	cfg   Config

	mu     sync.Mutex
	ord    int64 // global operation ordinal
	streak int   // consecutive injected transient/torn faults
	counts Counts

	mInjected   *obs.Counter
	mTransient  *obs.Counter
	mPersistent *obs.Counter
	mTorn       *obs.Counter
	mSpikes     *obs.Counter
	hLatency    *obs.Histogram
	mBitFlip    *obs.Counter
	mLost       *obs.Counter
	mSilentTorn *obs.Counter
	// vInjected breaks injections down per kind (labeled family
	// fault.injected.by_kind{kind="transient"|...}).
	vInjected *obs.CounterVec
	// log receives one structured event per applied injection.
	log *obs.Log
	// latSink receives the modelled seconds of every injected latency
	// spike (random draw or brownout window), so a data plane can
	// attribute spikes to the operation that paid them.
	latSink func(seconds float64)
}

// Wrap returns a fault-injecting view of be following cfg's schedule.
func Wrap(be disk.Backend, cfg Config) *Injector {
	return &Injector{inner: be, cfg: cfg}
}

// Inner returns the wrapped backend.
func (in *Injector) Inner() disk.Backend {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.inner
}

// Swap replaces the wrapped backend while keeping the fault schedule
// (ordinal, streak, counts) running. The recovery path's Reopen hook
// uses it so a rebuilt backend keeps consuming the same schedule.
// Arrays obtained before the swap stay bound to the old backend.
func (in *Injector) Swap(be disk.Backend) {
	in.mu.Lock()
	in.inner = be
	in.mu.Unlock()
}

// Counts returns a snapshot of the injection tallies.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Create creates the array on the inner backend and returns a
// fault-injecting view of it.
func (in *Injector) Create(name string, dims []int64) (disk.Array, error) {
	a, err := in.Inner().Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &faultArray{in: in, a: a}, nil
}

// Open opens the array on the inner backend and returns a
// fault-injecting view of it.
func (in *Injector) Open(name string) (disk.Array, error) {
	a, err := in.Inner().Open(name)
	if err != nil {
		return nil, err
	}
	return &faultArray{in: in, a: a}, nil
}

// Stats delegates to the inner backend: modelled I/O accounting is not
// perturbed by injection bookkeeping (retried operations are charged by
// the backend like any other operation).
func (in *Injector) Stats() disk.Stats { return in.Inner().Stats() }

// ResetStats delegates to the inner backend.
func (in *Injector) ResetStats() { in.Inner().ResetStats() }

// Close closes the inner backend.
func (in *Injector) Close() error { return in.Inner().Close() }

// Reopen reopens the wrapped backend when it supports reopening,
// swapping the rebuilt backend in underneath while the fault schedule
// (ordinal, streak, counts) keeps running — so exec.RunResilient's
// reopen probe works through the injector. A backend without reopen
// support is kept as is.
func (in *Injector) Reopen() (disk.Backend, error) {
	r, ok := in.Inner().(disk.Reopener)
	if !ok {
		return in, nil
	}
	nbe, err := r.Reopen()
	if err != nil {
		return nil, err
	}
	in.Swap(nbe)
	return in, nil
}

// SetMetrics mirrors injection tallies into the registry and forwards
// the registry to the inner backend when it supports metrics.
func (in *Injector) SetMetrics(reg *obs.Registry) {
	in.mu.Lock()
	if reg == nil {
		in.mInjected, in.mTransient, in.mPersistent = nil, nil, nil
		in.mTorn, in.mSpikes, in.hLatency = nil, nil, nil
		in.mBitFlip, in.mLost, in.mSilentTorn = nil, nil, nil
	} else {
		in.mInjected = reg.Counter("fault.injected")
		in.mTransient = reg.Counter("fault.injected.transient")
		in.mPersistent = reg.Counter("fault.injected.persistent")
		in.mTorn = reg.Counter("fault.injected.torn")
		in.mSpikes = reg.Counter("fault.latency.spikes")
		in.hLatency = reg.Histogram("fault.latency.seconds")
		in.mBitFlip = reg.Counter("fault.injected.bitflip")
		in.mLost = reg.Counter("fault.injected.lost")
		in.mSilentTorn = reg.Counter("fault.injected.silenttorn")
	}
	if reg == nil {
		in.vInjected = nil
	} else {
		in.vInjected = reg.CounterVec("fault.injected.by_kind", "kind")
	}
	in.mu.Unlock()
	disk.AttachMetrics(in.Inner(), reg)
}

// SetLog streams one structured event per applied injection into the
// event log (system "fault"; nil disables).
func (in *Injector) SetLog(l *obs.Log) {
	in.mu.Lock()
	in.log = l
	in.mu.Unlock()
}

// SetLatencySink installs a callback invoked with the modelled seconds
// of every injected latency spike — a random draw or a brownout-window
// hit. It fires synchronously on the faulting operation's goroutine,
// outside the injector's lock, before the operation reaches the
// backend; the ring's health plane uses it to attribute spikes to the
// shard and operation that paid them. nil disables.
func (in *Injector) SetLatencySink(fn func(seconds float64)) {
	in.mu.Lock()
	in.latSink = fn
	in.mu.Unlock()
}

// kindName returns the schedule kind's label ("" for fNone).
func kindName(kind int) string {
	switch kind {
	case fTransient:
		return "transient"
	case fTorn:
		return "torn"
	case fPersistent:
		return "persistent"
	case fBitFlip:
		return "bitflip"
	case fLost:
		return "lost"
	case fSilentTorn:
		return "silenttorn"
	}
	return ""
}

// vinc bumps the per-kind labeled counter. Callers hold in.mu.
func (in *Injector) vinc(kind int) {
	if in.vInjected != nil {
		in.vInjected.With(kindName(kind)).Inc()
	}
}

// logInject emits the injection event for an errored fault kind;
// silent kinds are logged by recordSilent once actually applied.
func (in *Injector) logInject(kind int, op, array string, ord int64) {
	switch kind {
	case fTransient, fTorn, fPersistent:
	default:
		return
	}
	in.mu.Lock()
	l := in.log
	in.mu.Unlock()
	if !l.Enabled(obs.LevelInfo) {
		return
	}
	l.Info("fault", "inject."+kindName(kind),
		obs.F("op", op),
		obs.F("array", array),
		obs.F("ord", ord))
}

// fault kinds decided per operation.
const (
	fNone = iota
	fTransient
	fTorn
	fPersistent
	fBitFlip    // silent: flip one stored bit before a read
	fLost       // silent: acknowledge a write the medium drops
	fSilentTorn // silent: acknowledge a write that only half persists
)

// Schedule salts, one per independent probability draw.
const (
	saltLatency    = 0x1a7e
	saltTorn       = 0x70f2
	saltTransient  = 0xfa17
	saltBitFlip    = 0xb17f
	saltLost       = 0x105e
	saltSilentTorn = 0x51fe
	saltBitPick    = 0xb17b
)

// decide advances the schedule by one operation and returns the fault
// kind to inject plus the operation's ordinal (which seeds any
// per-operation detail draws, e.g. which bit to flip). write selects
// whether the write-only kinds are eligible.
//
// Silent kinds are decided here but tallied by recordSilent only once
// actually applied: they need backend capabilities (disk.BitFlipper,
// disk.SilentWriter) the wrapped backend may lack, and an unapplied
// corruption must not be counted. They return success, so they neither
// feed nor reset the consecutive-error streak.
func (in *Injector) decide(write bool) (int, int64) {
	in.mu.Lock()
	kind, ord, spike := in.decideLocked(write)
	sink := in.latSink
	in.mu.Unlock()
	if spike > 0 && sink != nil {
		sink(spike)
	}
	return kind, ord
}

func (in *Injector) decideLocked(write bool) (int, int64, float64) {
	ord := in.ord
	in.ord++
	in.counts.Ops++

	if in.cfg.PersistentAfter > 0 &&
		ord >= in.cfg.PersistentAfter &&
		ord < in.cfg.PersistentAfter+in.cfg.persistentOps() {
		in.counts.Persistent++
		in.inc(in.mInjected)
		in.inc(in.mPersistent)
		in.vinc(fPersistent)
		in.streak = 0
		return fPersistent, ord, 0
	}

	spike := 0.0
	if in.cfg.LatencyRate > 0 && in.frac(ord, saltLatency) < in.cfg.LatencyRate {
		spike += in.cfg.LatencySeconds
	}
	if in.cfg.BrownoutAfter > 0 &&
		ord >= in.cfg.BrownoutAfter &&
		ord < in.cfg.BrownoutAfter+in.cfg.brownoutOps() {
		spike += in.cfg.LatencySeconds
	}
	if spike > 0 {
		in.counts.LatencySpikes++
		in.counts.LatencySeconds += spike
		in.inc(in.mSpikes)
		if in.hLatency != nil {
			in.hLatency.Observe(spike)
		}
		// A spike delays the operation but does not fail it; fall
		// through so the same ordinal can still fault.
	}

	if !write && in.cfg.BitFlipRate > 0 && in.frac(ord, saltBitFlip) < in.cfg.BitFlipRate {
		return fBitFlip, ord, spike
	}
	if write && in.cfg.LostRate > 0 && in.frac(ord, saltLost) < in.cfg.LostRate {
		return fLost, ord, spike
	}
	if write && in.cfg.SilentTornRate > 0 && in.frac(ord, saltSilentTorn) < in.cfg.SilentTornRate {
		return fSilentTorn, ord, spike
	}

	if in.streak >= in.cfg.maxConsecutive() {
		in.streak = 0
		return fNone, ord, spike
	}
	if write && in.cfg.TornRate > 0 && in.frac(ord, saltTorn) < in.cfg.TornRate {
		in.counts.Torn++
		in.inc(in.mInjected)
		in.inc(in.mTorn)
		in.vinc(fTorn)
		in.streak++
		return fTorn, ord, spike
	}
	if in.cfg.Rate > 0 && in.frac(ord, saltTransient) < in.cfg.Rate {
		in.counts.Transient++
		in.inc(in.mInjected)
		in.inc(in.mTransient)
		in.vinc(fTransient)
		in.streak++
		return fTransient, ord, spike
	}
	in.streak = 0
	return fNone, ord, spike
}

// recordSilent tallies an applied silent corruption against its array.
func (in *Injector) recordSilent(kind int, array string) {
	in.mu.Lock()
	switch kind {
	case fBitFlip:
		in.counts.BitFlips++
		in.inc(in.mBitFlip)
	case fLost:
		in.counts.LostWrites++
		in.inc(in.mLost)
	case fSilentTorn:
		in.counts.SilentTorn++
		in.inc(in.mSilentTorn)
	}
	in.vinc(kind)
	l := in.log
	in.mu.Unlock()
	if l.Enabled(obs.LevelInfo) {
		l.Info("fault", "inject."+kindName(kind), obs.F("array", array))
	}
}

func (in *Injector) inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// frac maps (seed, ordinal, salt) to a uniform [0,1) via splitmix64.
func (in *Injector) frac(ord int64, salt uint64) float64 {
	return float64(in.pick(ord, salt)>>11) / float64(uint64(1)<<53)
}

// pick maps (seed, ordinal, salt) to a uniform uint64 via splitmix64 —
// the raw draw behind frac, also used for per-operation details such as
// which bit a bit flip targets.
func (in *Injector) pick(ord int64, salt uint64) uint64 {
	x := in.cfg.Seed ^ uint64(ord)*0x9e3779b97f4a7c15 ^ salt
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// faultArray injects faults around one array's section I/O.
type faultArray struct {
	in *Injector
	a  disk.Array
}

func (f *faultArray) Name() string  { return f.a.Name() }
func (f *faultArray) Dims() []int64 { return f.a.Dims() }

// tornPrefix returns the shape and element count of the prefix written
// by a torn write: half the rows along the leading dimension.
func tornPrefix(shape []int64) ([]int64, int64) {
	if len(shape) == 0 || shape[0] < 2 {
		return nil, 0
	}
	pre := append([]int64(nil), shape...)
	pre[0] = shape[0] / 2
	n := int64(1)
	for _, d := range pre {
		n *= d
	}
	return pre, n
}

// flipBit applies a silent bit flip beneath the backend's checksum
// layer, targeting the first element of the section about to be read so
// that the very next verified read detects the rot. Returns whether the
// flip was applied (the backend must implement disk.BitFlipper).
func (f *faultArray) flipBit(lo []int64, ord int64) bool {
	bf, ok := f.a.(disk.BitFlipper)
	if !ok {
		return false
	}
	elem := disk.FlatOffset(f.a.Dims(), lo)
	bit := uint(f.in.pick(ord, saltBitPick) % 64)
	if bf.FlipBit(elem, bit) != nil {
		return false
	}
	f.in.recordSilent(fBitFlip, f.a.Name())
	return true
}

// writeSilent applies a silent write corruption when the backend can
// model one, reporting whether it was applied (otherwise the caller
// performs an honest write).
func (f *faultArray) writeSilent(lo, shape []int64, buf []float64, kind int) (bool, error) {
	sw, ok := f.a.(disk.SilentWriter)
	if !ok {
		return false, nil
	}
	mode := disk.SilentLost
	if kind == fSilentTorn {
		mode = disk.SilentTorn
	}
	err := sw.WriteSectionSilent(lo, shape, buf, mode)
	if err == nil {
		f.in.recordSilent(kind, f.a.Name())
	}
	return true, err
}

func (f *faultArray) ReadSection(lo, shape []int64, buf []float64) error {
	kind, ord := f.in.decide(false)
	f.in.logInject(kind, "read", f.a.Name(), ord)
	switch kind {
	case fPersistent:
		return disk.NewIOError("read", f.a.Name(), lo, shape, false, ErrPersistent)
	case fBitFlip:
		f.flipBit(lo, ord)
		return f.a.ReadSection(lo, shape, buf)
	case fTransient:
		// Perform-then-fail: the backend is charged and the buffer
		// poisoned, modelling a completed transfer with corrupt
		// payload whose checksum failed.
		if err := f.a.ReadSection(lo, shape, buf); err != nil {
			return err
		}
		if len(buf) > 0 {
			buf[0] = math.NaN()
		}
		return disk.NewIOError("read", f.a.Name(), lo, shape, true, ErrInjected)
	default:
		return f.a.ReadSection(lo, shape, buf)
	}
}

func (f *faultArray) WriteSection(lo, shape []int64, buf []float64) error {
	kind, ord := f.in.decide(true)
	f.in.logInject(kind, "write", f.a.Name(), ord)
	switch kind {
	case fPersistent:
		return disk.NewIOError("write", f.a.Name(), lo, shape, false, ErrPersistent)
	case fLost, fSilentTorn:
		if applied, err := f.writeSilent(lo, shape, buf, kind); applied {
			return err
		}
		return f.a.WriteSection(lo, shape, buf)
	case fTorn:
		pre, n := tornPrefix(shape)
		if n > 0 {
			var preBuf []float64
			if int64(len(buf)) >= n {
				preBuf = buf[:n]
			}
			if err := f.a.WriteSection(lo, pre, preBuf); err != nil {
				return err
			}
		}
		return disk.NewIOError("write", f.a.Name(), lo, shape, true, ErrTorn)
	case fTransient:
		// Perform-then-fail: the data reached the disk but the
		// acknowledgement was lost; a retry rewrites it.
		if err := f.a.WriteSection(lo, shape, buf); err != nil {
			return err
		}
		return disk.NewIOError("write", f.a.Name(), lo, shape, true, ErrInjected)
	default:
		return f.a.WriteSection(lo, shape, buf)
	}
}
