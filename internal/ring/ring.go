// Package ring is the replicated sharded data plane: it places each
// block of a disk-resident array on N shard backends with R-way
// replication, either by consistent hashing or by the GA/DRA block
// distribution (see Placement). It implements disk.Backend (and the
// async contract), so the execution engine, the verifier, and the fault
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
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/obs"
)

// vnodes is the number of virtual nodes each shard projects onto the
// hash ring; more vnodes smooth the block distribution.
const vnodes = 64

// Placement selects how a Store maps an array's row blocks to shards.
type Placement int

const (
	// Hash splits the leading dimension into BlockRows-sized blocks and
	// places each on the R shards clockwise from its key on a
	// consistent-hash ring, so AddShard/DrainShard relocate only the
	// blocks whose replica set changed.
	Hash Placement = iota
	// Blocked is the GA/DRA block distribution: at Create the leading
	// extent d is split over the L live shards into the ranges
	// [d·k/L, d·(k+1)/L) (empty ranges are dropped), and replica r of
	// range k lives on the (k+r) mod L-th live shard. A section touching
	// a shard's range costs that shard exactly one sub-operation, as in a
	// GA collective. Rank-0 arrays live on the first live shard(s).
	// Membership changes keep the ranges and re-place each one on the
	// shard that would own its first row under a fresh split.
	Blocked
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
	// Placement selects the block → shard policy (default Hash).
	Placement Placement
	// Seed selects the placement hash; the same seed reproduces the same
	// block → replica assignment.
	Seed uint64
	// Disk is the per-shard disk model used by the default simulator
	// shards and by the front-door cost accounting.
	Disk machine.Disk
	// WithData selects numerically verifiable simulator shards (test
	// scale); cost-only otherwise.
	WithData bool
	// BlockRows overrides the Hash placement granularity: a block is this
	// many leading-dimension rows. 0 derives a per-array granularity that
	// yields roughly eight blocks per shard. Blocked rejects it.
	BlockRows int64
	// Open, if non-nil, builds shard i's backend instead of the default
	// disk.NewSim(Disk, WithData) — e.g. a FileStore per shard directory.
	// Backends from Open are assumed to hold real data.
	Open func(i int) (disk.Backend, error)
	// Retry is the per-replica retry budget for transient faults during
	// reads, writes, and repair probes. nil means no in-ring retries
	// (failover still applies).
	Retry *disk.RetryPolicy
	// Faults, if non-nil, wraps shard backends with a fault injector.
	// The schedule's shard selector (fault.Config.TargetsShard) picks
	// which shards inject; each injecting shard gets its own injector
	// seeded with Seed+index so schedules are independent.
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
	opt      Options
	withData bool

	mu     sync.Mutex
	shards []*shard
	table  []vnode
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

// vnode is one virtual node on the hash ring.
type vnode struct {
	h     uint64
	shard int
}

// New builds a Store over opt.Shards fresh shard backends.
func New(opt Options) (*Store, error) {
	if opt.Shards <= 0 {
		return nil, fmt.Errorf("ring: non-positive shard count %d", opt.Shards)
	}
	if opt.Replicas < 1 || opt.Replicas > opt.Shards {
		return nil, fmt.Errorf("ring: replication factor %d outside [1, %d]", opt.Replicas, opt.Shards)
	}
	switch {
	case opt.Placement != Hash && opt.Placement != Blocked:
		return nil, fmt.Errorf("ring: unknown placement %d", opt.Placement)
	case opt.Placement == Blocked && opt.BlockRows != 0:
		return nil, fmt.Errorf("ring: BlockRows %d with Blocked placement (its blocks are the per-shard ranges)", opt.BlockRows)
	}
	s := &Store{
		opt:       opt,
		withData:  opt.WithData || opt.Open != nil,
		arrays:    map[string]*Array{},
		front:     disk.NewLedger(opt.Disk),
		log:       opt.Log,
		demotions: map[int]*[numDemotionReasons]int64{},
	}
	if opt.Health != nil {
		s.hp = newHealthPlane(s, *opt.Health)
	}
	for i := 0; i < opt.Shards; i++ {
		sh, err := s.newShard(i)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	s.rebuildTable()
	s.SetMetrics(opt.Metrics)
	return s, nil
}

// newShard builds shard i's backend, wrapping it with a fault injector
// when the schedule targets it.
func (s *Store) newShard(i int) (*shard, error) {
	var be disk.Backend
	if s.opt.Open != nil {
		var err error
		be, err = s.opt.Open(i)
		if err != nil {
			return nil, fmt.Errorf("ring: open shard %d: %w", i, err)
		}
	} else {
		be = disk.NewSim(s.opt.Disk, s.opt.WithData)
	}
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
	return sh, nil
}

// rebuildTable recomputes the vnode table over the live shards. Callers
// hold s.mu (or have exclusive access during construction).
func (s *Store) rebuildTable() {
	s.table = s.table[:0]
	for _, sh := range s.shards {
		if !sh.live {
			continue
		}
		for v := 0; v < vnodes; v++ {
			h := mix(s.opt.Seed ^ mix(uint64(sh.id)+0x5851f42d4c957f2d) ^ uint64(v)*0x14057b7ef767814f)
			s.table = append(s.table, vnode{h: h, shard: sh.id})
		}
	}
	sort.Slice(s.table, func(i, j int) bool {
		if s.table[i].h != s.table[j].h {
			return s.table[i].h < s.table[j].h
		}
		return s.table[i].shard < s.table[j].shard
	})
}

// replicasFor walks the ring clockwise from key and returns the first r
// distinct live shards. Callers hold s.mu.
func (s *Store) replicasFor(key uint64, r int) []int {
	out := make([]int, 0, r)
	if len(s.table) == 0 {
		return out
	}
	start := sort.Search(len(s.table), func(i int) bool { return s.table[i].h >= key })
	seen := map[int]bool{}
	for i := 0; i < len(s.table) && len(out) < r; i++ {
		v := s.table[(start+i)%len(s.table)]
		if !seen[v.shard] {
			seen[v.shard] = true
			out = append(out, v.shard)
		}
	}
	return out
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

// AsyncCapable reports native disk.AsyncArray support: an async section
// operation detaches the whole collective, whose per-shard
// sub-operations run in turn, from the issuing goroutine (the pipelined
// engine's prefetch).
func (s *Store) AsyncCapable() bool { return true }

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
		st:       s,
		name:     name,
		nameHash: hashString(name),
		dims:     append([]int64(nil), dims...),
		locals:   make(map[int]disk.Array),
		stale:    map[int64]map[int]bool{},
	}
	a.rowSize = 1
	if len(dims) > 1 {
		for _, d := range dims[1:] {
			a.rowSize *= d
		}
	}
	a.bounds = s.splitRows(a.d0())
	a.blocks = int64(len(a.bounds) - 1)
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
	a.cands = s.placeLocked(a)
	s.arrays[name] = a
	return a, nil
}

// splitRows returns the block boundaries 0 = b[0] < b[1] < … < b[n] = d0
// of a leading extent d0 under the placement policy: BlockRows-sized
// blocks for Hash (roughly eight per live shard by default), the
// non-empty floor-split ranges over the live shards for Blocked. Callers
// hold s.mu.
func (s *Store) splitRows(d0 int64) []int64 {
	live := int64(s.liveCount())
	rows := s.opt.BlockRows
	if rows <= 0 {
		rows = max(1, d0/(8*live))
	}
	bounds := []int64{0}
	for k := int64(1); bounds[len(bounds)-1] < d0; k++ {
		hi := min(d0, k*rows)
		if s.opt.Placement == Blocked {
			hi = d0 * k / live
		}
		if hi > bounds[len(bounds)-1] {
			bounds = append(bounds, hi)
		}
	}
	return bounds
}

// placeLocked computes every block's replica list over the live shards
// under the placement policy. Callers hold s.mu.
func (s *Store) placeLocked(a *Array) [][]int {
	cands := make([][]int, a.blocks)
	if s.opt.Placement == Hash {
		for b := range cands {
			cands[b] = s.replicasFor(a.blockKey(int64(b)), s.opt.Replicas)
		}
		return cands
	}
	live := s.liveShards()
	for b := range cands {
		k := 0 // rank-0 arrays live on the first live shard, like GA's proc 0
		if len(a.dims) > 0 {
			k = splitOwner(a.bounds[b], a.dims[0], len(live))
		}
		cands[b] = make([]int, s.opt.Replicas)
		for r := range cands[b] {
			cands[b][r] = live[(k+r)%len(live)].id
		}
	}
	return cands
}

// splitOwner returns the k whose floor-split range [d·k/n, d·(k+1)/n)
// holds row: the smallest k with d·(k+1)/n > row.
func splitOwner(row, d int64, n int) int {
	return int(((row+1)*int64(n) - 1) / d)
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

// mix is splitmix64's finalizer — the repo's standard deterministic
// hash (shared with the retry jitter and the fault schedule).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a 64 over s.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
