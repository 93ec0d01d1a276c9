// Package ring is the replicated sharded data plane: it places each
// block of a disk-resident array on N shard backends with R-way
// replication by the GA/DRA block distribution. At Create the leading
// extent d is split over the L live shards into the ranges
// [d·k/L, d·(k+1)/L) (empty ranges are dropped), and replica r of range k
// lives on the (k+r) mod L-th live shard; rank-0 arrays live on the
// first live shard(s). A section touching a shard's range costs that
// shard exactly one sub-operation, as in a GA collective. Membership
// changes edit the ranges locally (see rebalance.go), so placement is a
// pure function of the creation-time live set and the sequence of
// membership changes. The store implements disk.Backend, so the execution
// engine, the verifier, and the fault
// injector run on it unchanged, with failure as a first-class citizen:
//
//   - Reads try a block's replicas in ring order and fail over on typed
//     disk.IOError / disk.IntegrityError, with a per-replica retry budget
//     from disk.RetryPolicy. A block with no reachable replica surfaces
//     as a typed, attributed *BlockError wrapped in a *disk.IOError.
//   - Writes go to every live replica. A replica that cannot take the
//     write is marked stale for the affected blocks (degraded write)
//     rather than left silently divergent; reads skip stale copies.
//   - Scrub-time self-healing: HealArray rebuilds defective or stale
//     replica copies from a healthy peer — repair-before-recompute, see
//     repair.go.
//   - Shard membership changes (AddShard / DrainShard) trigger a
//     rebalancer whose data movement is charged to the shard cost model,
//     see rebalance.go.
//
// Cost accounting is two-tier. The front door (Stats, what the execution
// engine reconciles its spans and metrics against) charges exactly one
// single-disk-equivalent operation per section call — the same
// Disk.ReadTime(bytes, 1) figure exec models — so the disk-track span
// total still equals Stats.Time() when the backend is a ring. The
// per-shard accounting (ShardStats, AggregateStats, Time) carries the
// real parallel story: each shard charges every sub-operation it served,
// failed failover attempts included, and Time() is the max over shards
// plus the modelled failover backoff — the Table 4 wall clock.
package ring

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Metric names published by the ring (see Options.Metrics/SetMetrics).
const (
	// MetricFailover counts read attempts that gave up on a replica and
	// moved to the next one, labeled by the failed shard.
	MetricFailover = "ring.replica.failover"
	// MetricRepairCopied counts replica copies rebuilt from a healthy
	// peer; MetricRepairRecomputed counts defective blocks with no
	// healthy replica left, which only recompute-from-producer can heal.
	MetricRepairCopied     = "ring.repair.copied"
	MetricRepairRecomputed = "ring.repair.recomputed"
	// MetricDegradedBlocks gauges how many (array, block) pairs currently
	// have at least one stale replica copy.
	MetricDegradedBlocks = "ring.degraded.blocks"
)

// Options configure a Store.
type Options struct {
	// Shards is the initial shard count N (> 0).
	Shards int
	// Replicas is the replication factor R in [1, Shards].
	Replicas int
	// Seed has no effect: placement is a pure function of the
	// creation-time live set and the sequence of membership changes.
	// It remains only so that callers which still set it compile.
	Seed uint64
	// Disk is the per-shard disk model used by the simulator shards and
	// by the front-door cost accounting.
	Disk machine.Disk
	// WithData selects numerically verifiable simulator shards (test
	// scale); cost-only otherwise.
	WithData bool
	// Retry is the per-replica retry budget for transient faults during
	// reads, writes, and repair probes. nil means no in-ring retries
	// (failover still applies).
	Retry *disk.RetryPolicy
	// Faults, if non-nil, wraps shard backends with a fault injector.
	// The schedule's shard selector (fault.Config.TargetsShard) picks
	// which shards inject; each injecting shard gets its own injector
	// seeded with fault.Config.Seed+index so schedules are independent.
	Faults *fault.Config
	// Health, if non-nil, enables the shard-health plane: per-shard EWMA
	// latency/error scoring with circuit breakers that demote slow
	// shards out of preferred read position, and hedged reads against
	// replicas whose observed latency crosses the quantile-derived hedge
	// threshold (see internal/health). The zero Config selects the
	// defaults. nil keeps the pre-health read path bit-for-bit.
	Health *health.Config
	// Metrics, if non-nil, receives the ring health families and the
	// front-door I/O counters.
	Metrics *obs.Registry
	// Log, if non-nil, receives structured failover / degraded-write /
	// repair / rebalance events (system "ring").
	Log *obs.Log
}

// shard is one ring member.
type shard struct {
	id   int
	name string // bounded metric label, fixed at construction
	be   disk.Backend
	live bool
	inj  *fault.Injector // non-nil when Faults targets this shard
}

// Store is the replicated sharded backend.
type Store struct {
	opt Options

	mu     sync.Mutex
	shards []*shard
	arrays map[string]*Array
	closed bool

	front *disk.Ledger // front-door (single-disk-equivalent) accounting

	fmu              sync.Mutex
	failoverSeconds  float64 // modelled backoff spent inside failover retries
	degradedBlocks   int64   // (array, block) pairs with >= 1 stale copy
	vFailover        *obs.CounterVec
	mRepairCopied    *obs.Counter
	mRepairRecompute *obs.Counter
	gDegraded        *obs.Gauge

	log *obs.Log

	// hp is the shard-health plane, nil unless Options.Health is set.
	hp *healthPlane
	// dmu guards the demotion ledger, which exists with or without a
	// health plane (stale demotions predate it).
	dmu       sync.Mutex
	demotions map[int]*[numDemotionReasons]int64

	keyMu    sync.Mutex
	retryKey uint64
}

// New builds a Store over opt.Shards fresh shard backends.
func New(opt Options) (*Store, error) {
	if opt.Shards <= 0 {
		return nil, fmt.Errorf("ring: non-positive shard count %d", opt.Shards)
	}
	if opt.Replicas < 1 || opt.Replicas > opt.Shards {
		return nil, fmt.Errorf("ring: replication factor %d outside [1, %d]", opt.Replicas, opt.Shards)
	}
	s := &Store{
		opt:       opt,
		arrays:    map[string]*Array{},
		front:     disk.NewLedger(opt.Disk),
		log:       opt.Log,
		demotions: map[int]*[numDemotionReasons]int64{},
	}
	if opt.Health != nil {
		s.hp = newHealthPlane(s, *opt.Health)
	}
	for i := 0; i < opt.Shards; i++ {
		s.shards = append(s.shards, s.newShard(i))
	}
	s.SetMetrics(opt.Metrics)
	return s, nil
}

// newShard builds shard i's simulator backend, wrapping it with a fault
// injector when the schedule targets it.
func (s *Store) newShard(i int) *shard {
	be := disk.NewSim(s.opt.Disk, s.opt.WithData)
	sh := &shard{id: i, name: fmt.Sprintf("s%d", i), be: be, live: true}
	if cfg := s.opt.Faults; cfg != nil && cfg.TargetsShard(i) {
		c := *cfg
		c.Seed += uint64(i) // independent schedules per injecting shard
		sh.inj = fault.Wrap(be, c)
		sh.be = sh.inj
	}
	if s.hp != nil {
		s.hp.registerShard(sh.id, sh.name)
		if sh.inj != nil {
			// Attribute injected latency spikes to the shard that pays
			// them, so the health plane can score and hedge on them.
			id := sh.id
			sh.inj.SetLatencySink(func(sec float64) { s.hp.addPending(id, sec) })
		}
	}
	return sh
}

// liveCount returns the number of live shards. Callers hold s.mu.
func (s *Store) liveCount() int {
	n := 0
	for _, sh := range s.shards {
		if sh.live {
			n++
		}
	}
	return n
}

// Live returns the current live shard count.
func (s *Store) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveCount()
}

// Replicas returns the replication factor.
func (s *Store) Replicas() int { return s.opt.Replicas }

// ShardBackend returns shard i's backend (the fault-injecting view when
// the shard is wrapped); tests use it to reach the underlying store.
func (s *Store) ShardBackend(i int) disk.Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i].be
}

// Create allocates a replicated array: every live shard holds a
// full-extent local copy, of which it authoritatively owns the blocks
// the ring places on it.
func (s *Store) Create(name string, dims []int64) (disk.Array, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ring: store closed")
	}
	if _, ok := s.arrays[name]; ok {
		return nil, fmt.Errorf("ring: array %q already exists", name)
	}
	a := &Array{
		st:     s,
		name:   name,
		dims:   append([]int64(nil), dims...),
		locals: make(map[int]disk.Array),
		stale:  map[int64]map[int]bool{},
	}
	a.rowSize = 1
	if len(dims) > 1 {
		for _, d := range dims[1:] {
			a.rowSize *= d
		}
	}
	for _, sh := range s.shards {
		if !sh.live {
			continue
		}
		la, err := sh.be.Create(name, dims)
		if err != nil {
			return nil, fmt.Errorf("ring: shard %d: %w", sh.id, err)
		}
		a.locals[sh.id] = la
	}
	s.splitLocked(a)
	s.arrays[name] = a
	return a, nil
}

// splitLocked lays a new array out as GA/DRA does: the non-empty
// floor-split ranges [d·k/L, d·(k+1)/L) of its leading extent over the L
// live shards, replica r of range k on the (k+r) mod L-th live shard.
// A rank-0 array is one block on the first live shard(s), like GA's
// process 0. Callers hold s.mu.
func (s *Store) splitLocked(a *Array) {
	live := s.liveShards()
	n, d0 := int64(len(live)), a.d0()
	a.bounds = []int64{0}
	for k := int64(0); k < n; k++ {
		hi := d0 * (k + 1) / n
		if hi == a.bounds[len(a.bounds)-1] {
			continue
		}
		owner := k
		if len(a.dims) == 0 {
			owner = 0
		}
		c := make([]int, s.opt.Replicas)
		for r := range c {
			c[r] = live[(owner+int64(r))%n].id
		}
		a.bounds = append(a.bounds, hi)
		a.cands = append(a.cands, c)
	}
	a.blocks = int64(len(a.cands))
}

// Open returns an existing replicated array.
func (s *Store) Open(name string) (disk.Array, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arrays[name]
	if !ok {
		return nil, fmt.Errorf("ring: array %q does not exist", name)
	}
	return a, nil
}

// Stats returns the front-door accounting: one single-disk-equivalent
// charge per section operation, the figure the execution engine's spans
// and metrics reconcile against. Replication and failover costs live in
// the per-shard accounting (ShardStats, AggregateStats, Time).
func (s *Store) Stats() disk.Stats { return s.front.Snapshot() }

// ShardStats returns shard i's accumulated statistics.
func (s *Store) ShardStats(i int) disk.Stats {
	s.mu.Lock()
	be := s.shards[i].be
	s.mu.Unlock()
	return be.Stats()
}

// AggregateStats sums the per-shard statistics over all live shards —
// every sub-operation the data plane actually served, replication and
// failed failover attempts included.
func (s *Store) AggregateStats() disk.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total disk.Stats
	for _, sh := range s.shards {
		if sh.live {
			total.Add(sh.be.Stats())
		}
	}
	return total
}

// Time returns the parallel wall-clock I/O time: the maximum modelled
// time over the live shards (a collective completes when its slowest
// shard finishes) plus the modelled backoff spent inside failover
// retries, which serializes with the operation that paid it.
func (s *Store) Time() float64 {
	s.mu.Lock()
	t := 0.0
	for _, sh := range s.shards {
		if !sh.live {
			continue
		}
		if st := sh.be.Stats().Time(); st > t {
			t = st
		}
	}
	s.mu.Unlock()
	s.fmu.Lock()
	t += s.failoverSeconds
	s.fmu.Unlock()
	return t
}

// FailoverSeconds returns the modelled backoff charged by in-ring
// failover retries since the last ResetStats.
func (s *Store) FailoverSeconds() float64 {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.failoverSeconds
}

// ResetStats zeroes the front door, every shard's counters, and the
// failover backoff account.
func (s *Store) ResetStats() {
	s.front.Reset()
	s.mu.Lock()
	for _, sh := range s.shards {
		if sh.live {
			sh.be.ResetStats()
		}
	}
	s.mu.Unlock()
	s.fmu.Lock()
	s.failoverSeconds = 0
	s.fmu.Unlock()
	s.resetDemotions()
	if s.hp != nil {
		s.hp.resetAccounts()
	}
}

// SetMetrics attaches reg (nil detaches): the front-door I/O counters
// mirror into the standard disk.Metric* names, and the ring publishes
// its health families (ring.replica.failover, ring.repair.*,
// ring.degraded.blocks).
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.front.SetMetrics(reg)
	if s.hp != nil {
		s.hp.setMetrics(reg)
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if reg == nil {
		s.vFailover = nil
		s.mRepairCopied = nil
		s.mRepairRecompute = nil
		s.gDegraded = nil
		return
	}
	s.vFailover = reg.CounterVec(MetricFailover, "shard")
	s.mRepairCopied = reg.Counter(MetricRepairCopied)
	s.mRepairRecompute = reg.Counter(MetricRepairRecomputed)
	s.gDegraded = reg.Gauge(MetricDegradedBlocks)
	s.gDegraded.Set(float64(s.degradedBlocks))
}

// Reopen rebuilds every live shard that supports reopening (fault
// injectors keep their schedules running across the swap) and returns
// the store itself, so exec.RunResilient's reopen probe works on a ring.
func (s *Store) Reopen() (disk.Backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		if !sh.live {
			continue
		}
		ro, ok := sh.be.(disk.Reopener)
		if !ok {
			continue
		}
		nbe, err := ro.Reopen()
		if err != nil {
			return nil, fmt.Errorf("ring: reopen shard %d: %w", sh.id, err)
		}
		sh.be = nbe
	}
	return s, nil
}

// Close releases every live shard backend, aggregating their errors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, sh := range s.shards {
		if !sh.live {
			continue
		}
		if err := sh.be.Close(); err != nil {
			errs = append(errs, fmt.Errorf("ring: close shard %d: %w", sh.id, err))
		}
	}
	s.arrays = nil
	return errors.Join(errs...)
}

// noteFailover records one abandoned replica attempt during a read.
func (s *Store) noteFailover(sh *shard, array string, block int64, err error) {
	s.fmu.Lock()
	v := s.vFailover
	s.fmu.Unlock()
	if v != nil {
		v.With(sh.name).Inc()
	}
	if s.log.Enabled(obs.LevelWarn) {
		s.log.Warn("ring", "replica.failover",
			obs.F("array", array),
			obs.F("shard", sh.id),
			obs.F("block", block),
			obs.F("error", err))
	}
}

// addFailoverSeconds charges modelled backoff spent inside a failover
// retry loop.
func (s *Store) addFailoverSeconds(sec float64) {
	if sec <= 0 {
		return
	}
	s.fmu.Lock()
	s.failoverSeconds += sec
	s.fmu.Unlock()
}

// setDegraded publishes the degraded-block gauge.
func (s *Store) setDegraded(n int64) {
	s.fmu.Lock()
	s.degradedBlocks = n
	g := s.gDegraded
	s.fmu.Unlock()
	if g != nil {
		g.Set(float64(n))
	}
}

// recountDegraded recounts (array, block) pairs with a stale copy
// across all arrays and publishes the gauge.
func (s *Store) recountDegraded() {
	s.mu.Lock()
	s.recountDegradedLocked()
	s.mu.Unlock()
}

// nextRetryKey salts the deterministic retry jitter.
func (s *Store) nextRetryKey() uint64 {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	s.retryKey++
	return s.retryKey
}
