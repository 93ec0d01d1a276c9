package health

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/obs"
)

// Metric names of the scrub scheduler.
const (
	// MetricSchedTicks counts unit barriers the scheduler saw.
	MetricSchedTicks = "scrub.sched.ticks"
	// MetricSchedArrays counts arrays scrubbed by scheduled slices.
	MetricSchedArrays = "scrub.sched.arrays"
	// MetricSchedBlocks counts blocks verified by scheduled slices.
	MetricSchedBlocks = "scrub.sched.blocks"
	// MetricSchedDefects counts defects found by scheduled slices.
	MetricSchedDefects = "scrub.sched.defects"
	// MetricSchedHealed counts replica copies healed by scheduled slices.
	MetricSchedHealed = "scrub.sched.healed"
)

// Prioritizer orders the scrub queue: arrays with higher suspicion are
// scrubbed first. ring.Store implements it from stale marks and shard
// health scores.
type Prioritizer interface {
	Suspicion(array string) float64
}

// SchedOptions tune a ScrubScheduler.
type SchedOptions struct {
	// Interval is how many unit barriers pass between scrub slices
	// (default 4, minimum 1). Each slice verifies one array.
	Interval int
	// Repair heals defective arrays as they are found, replica-first,
	// with the same ordering disk.Scrub uses.
	Repair bool
	// Metrics, if non-nil, receives scrub.sched.* counters.
	Metrics *obs.Registry
	// Log, if non-nil, receives one scrub.sched.array event per slice
	// and a scrub.sched.done summary (system "health").
	Log *obs.Log
	// Prioritizer orders the queue; when nil it is auto-detected from
	// the backend's wrapper chain, falling back to name order.
	Prioritizer Prioritizer
}

// ScrubScheduler spreads one integrity sweep across a run: at every
// unit barrier Tick advances a barrier counter, and every Interval
// barriers it verifies (and optionally repairs) the not-yet-covered
// array with the highest suspicion. Drain finishes the remainder at run
// end, so one full pass replaces the post-run sweep with the suspect
// arrays checked earliest. Verification is out-of-band maintenance: it
// charges no modelled I/O, so interleaving slices mid-run does not
// perturb the plan's deterministic op stream.
//
// Coverage semantics: each array is verified once per run, at its
// scheduled slice — corruption landing on an array after its slice is
// caught by the next run's pass, not this one's. A run that needs an
// end-state guarantee should still finish with a full disk.Scrub.
type ScrubScheduler struct {
	be  disk.Backend
	st  disk.IntegrityStore
	opt SchedOptions

	mu       sync.Mutex
	barriers int64
	done     map[string]bool
	rep      disk.ScrubReport
}

// NewScrubScheduler builds a scheduler over be, which must carry an
// IntegrityStore somewhere on its wrapper chain.
func NewScrubScheduler(be disk.Backend, opt SchedOptions) (*ScrubScheduler, error) {
	st, ok := disk.Find[disk.IntegrityStore](be)
	if !ok {
		return nil, fmt.Errorf("health: backend does not maintain integrity metadata; nothing to scrub")
	}
	if opt.Interval <= 0 {
		opt.Interval = 4
	}
	if opt.Prioritizer == nil {
		opt.Prioritizer, _ = disk.Find[Prioritizer](be)
	}
	return &ScrubScheduler{be: be, st: st, opt: opt, done: make(map[string]bool)}, nil
}

// Tick is the unit-barrier hook (exec.Options.OnUnit): every Interval
// barriers it scrubs the most suspect uncovered array.
func (s *ScrubScheduler) Tick() error {
	s.mu.Lock()
	s.barriers++
	due := s.barriers%int64(s.opt.Interval) == 0
	s.mu.Unlock()
	s.opt.Metrics.Counter(MetricSchedTicks).Inc()
	if !due {
		return nil
	}
	name, ok := s.next()
	if !ok {
		return nil
	}
	return s.scrubArray(name)
}

// Drain scrubs every array the scheduled slices have not covered yet,
// most suspect first. Call it once at run end.
func (s *ScrubScheduler) Drain() error {
	for {
		name, ok := s.next()
		if !ok {
			break
		}
		if err := s.scrubArray(name); err != nil {
			return err
		}
	}
	s.mu.Lock()
	rep := s.rep
	s.mu.Unlock()
	if s.opt.Log != nil {
		s.opt.Log.Info("health", "scrub.sched.done",
			obs.F("arrays", rep.Arrays),
			obs.F("blocks", rep.Blocks),
			obs.F("defects", len(rep.Defects)),
			obs.F("repaired", rep.Repaired),
			obs.F("healed", rep.HealedFromReplica))
	}
	return nil
}

// next picks the uncovered array with the highest suspicion (ties break
// by name, keeping the order deterministic).
func (s *ScrubScheduler) next() (string, bool) {
	names := s.st.ArrayNames()
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestScore, found := "", 0.0, false
	for _, n := range names {
		if s.done[n] {
			continue
		}
		score := 0.0
		if s.opt.Prioritizer != nil {
			score = s.opt.Prioritizer.Suspicion(n)
		}
		if !found || score > bestScore {
			best, bestScore, found = n, score, true
		}
	}
	if found {
		s.done[best] = true
	}
	return best, found
}

// scrubArray runs one verification (and repair) slice through
// disk.ScrubArray, syncing a repair at once.
func (s *ScrubScheduler) scrubArray(name string) error {
	defects, blocks, healedCopies, err := disk.ScrubArray(s.be, s.st, name, disk.ScrubOptions{Repair: s.opt.Repair})
	if err != nil {
		return fmt.Errorf("health: scheduled scrub: %w", err)
	}
	repaired := int64(0)
	if s.opt.Repair && len(defects) > 0 {
		repaired = int64(len(defects))
		if err := disk.SyncBackend(s.be); err != nil {
			return fmt.Errorf("health: scheduled scrub sync: %w", err)
		}
	}
	s.mu.Lock()
	s.rep.Arrays++
	s.rep.Blocks += blocks
	s.rep.Defects = append(s.rep.Defects, defects...)
	s.rep.Repaired += repaired
	s.rep.HealedFromReplica += healedCopies
	s.mu.Unlock()
	s.opt.Metrics.Counter(MetricSchedArrays).Inc()
	s.opt.Metrics.Counter(MetricSchedBlocks).Add(blocks)
	s.opt.Metrics.Counter(MetricSchedDefects).Add(int64(len(defects)))
	s.opt.Metrics.Counter(MetricSchedHealed).Add(healedCopies)
	if s.opt.Log != nil && s.opt.Log.Enabled(obs.LevelInfo) {
		susp := 0.0
		if s.opt.Prioritizer != nil {
			susp = s.opt.Prioritizer.Suspicion(name)
		}
		s.opt.Log.Info("health", "scrub.sched.array",
			obs.F("array", name),
			obs.F("blocks", blocks),
			obs.F("defects", len(defects)),
			obs.F("healed", healedCopies),
			obs.F("suspicion", susp))
	}
	return nil
}

// Report returns the accumulated pass report. The defect list is shared
// with the scheduler; callers treat it as read-only.
func (s *ScrubScheduler) Report() *disk.ScrubReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.rep
	return &rep
}

// Covered reports how many arrays the pass has verified so far, sorted
// coverage for tests.
func (s *ScrubScheduler) Covered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.done))
	for n := range s.done {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
