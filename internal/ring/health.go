package ring

// The shard-health plane: EWMA latency/error scoring with per-shard
// circuit breakers (internal/health) threaded through the read path,
// plus hedged reads against slow-but-alive replicas.
//
// Everything here runs on the modelled clock — "now" is the front
// door's accumulated modelled time, latency is the injector's modelled
// spike seconds attributed through fault.Injector.SetLatencySink — so
// breaker transitions and hedge decisions are pure functions of the
// seeded op stream and stay bit-identical across same-seed runs.
//
// Cost accounting stays two-tier and honest: the front door still
// charges exactly one single-disk-equivalent op per section (the span
// model's invariant), hedge fan-out is charged by the shard that served
// it in the per-shard tier, and the *experienced* extra wait (spikes a
// read actually paid, minus what hedging rescued) accumulates in a
// separate tail account, surfaced as TailReadSeconds/FrontReadSeconds.

import (
	"encoding/json"
	"slices"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/health"
	"repro/internal/obs"
)

// Metric names of the shard-health plane.
const (
	// MetricBreakerState gauges each shard's breaker state, labeled by
	// shard (0 closed, 1 half-open, 2 open).
	MetricBreakerState = "ring.breaker.state"
	// MetricHedgeIssued / Won / Cancelled count hedged reads: issued to
	// a secondary replica, won by it (its modelled finish beat the
	// preferred replica's), or cancelled (the preferred finish stood).
	MetricHedgeIssued    = "ring.hedge.issued"
	MetricHedgeWon       = "ring.hedge.won"
	MetricHedgeCancelled = "ring.hedge.cancelled"
)

// DemotionReason says why a replica lost preferred position for a read.
type DemotionReason int

const (
	// DemoteStale moves a replica that missed a write to the back of the
	// read order.
	DemoteStale DemotionReason = iota
	// DemoteBreakerOpen moves a replica whose breaker is open behind the
	// healthy candidates.
	DemoteBreakerOpen
	// DemoteHedgeLost records a preferred replica whose read was beaten
	// by a hedge to the next replica (the order itself was not changed;
	// the replica lost the race, not its position).
	DemoteHedgeLost
	numDemotionReasons
)

func (r DemotionReason) String() string {
	switch r {
	case DemoteStale:
		return "stale"
	case DemoteBreakerOpen:
		return "breaker-open"
	case DemoteHedgeLost:
		return "hedge-lost"
	}
	return "unknown"
}

// MarshalJSON renders the reason name, keeping tier reports readable.
func (r DemotionReason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// Demotion is one reason's tally of preference losses on a shard.
type Demotion struct {
	Reason DemotionReason `json:"reason"`
	Count  int64          `json:"count"`
}

// TierReport is one shard's per-shard-tier story: its modelled I/O, its
// health snapshot, and why reads demoted it out of preference.
type TierReport struct {
	Shard int        `json:"shard"`
	Live  bool       `json:"live"`
	Stats disk.Stats `json:"stats"`
	// Health is the zero value when the store runs without a health
	// plane (Options.Health nil).
	Health    health.ShardHealth `json:"health"`
	Demotions []Demotion         `json:"demotions,omitempty"`
}

// ShardReport returns shard i's tier report.
func (s *Store) ShardReport(i int) TierReport {
	s.mu.Lock()
	sh := s.shards[i]
	live := sh.live
	st := sh.be.Stats()
	s.mu.Unlock()
	rep := TierReport{Shard: i, Live: live, Stats: st, Health: s.hp.snapshot(i)}
	s.dmu.Lock()
	if counts := s.demotions[i]; counts != nil {
		for r, n := range counts {
			if n > 0 {
				rep.Demotions = append(rep.Demotions, Demotion{Reason: DemotionReason(r), Count: n})
			}
		}
	}
	s.dmu.Unlock()
	return rep
}

// DemotionCount returns how many reads demoted shard i for the reason.
func (s *Store) DemotionCount(i int, reason DemotionReason) int64 {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if counts := s.demotions[i]; counts != nil {
		return counts[reason]
	}
	return 0
}

// recordDemotion tallies one preference loss. Always available, with or
// without a health plane (stale demotions predate it).
func (s *Store) recordDemotion(id int, reason DemotionReason) {
	s.dmu.Lock()
	counts := s.demotions[id]
	if counts == nil {
		counts = new([numDemotionReasons]int64)
		s.demotions[id] = counts
	}
	counts[reason]++
	s.dmu.Unlock()
}

// resetDemotions zeroes the demotion ledger (ResetStats).
func (s *Store) resetDemotions() {
	s.dmu.Lock()
	s.demotions = map[int]*[numDemotionReasons]int64{}
	s.dmu.Unlock()
}

// Health returns the health tracker, nil when Options.Health was nil.
// Tests and operator tooling use it to inspect or force breaker state.
func (s *Store) Health() *health.Tracker { return s.hp.tracker() }

// TailReadSeconds returns the experienced read tail: modelled seconds
// reads actually waited beyond the front door's single-disk figure —
// injected spikes paid by winning preferred reads, plus the hedge
// detour cost when a hedge won. Zero without a health plane.
func (s *Store) TailReadSeconds() float64 { return s.hp.accounts().tailRead }

// TailWriteSeconds is the write-side tail account.
func (s *Store) TailWriteSeconds() float64 { return s.hp.accounts().tailWrite }

// FrontReadSeconds is the experienced front-door read time: the
// modelled single-disk-equivalent read seconds plus the read tail. This
// is the figure the gray-chaos bound (≤ 1.25× fault-free) is stated in.
func (s *Store) FrontReadSeconds() float64 {
	return s.front.Snapshot().ReadTime + s.TailReadSeconds()
}

// HedgeCounts returns the hedged-read tallies since the last ResetStats.
func (s *Store) HedgeCounts() (issued, won, cancelled int64) {
	a := s.hp.accounts()
	return a.hedgeIssued, a.hedgeWon, a.hedgeCancelled
}

// BreakerTransitions returns how many breaker transitions entered each
// state since the store was built (opens, half-opens, closes). Breaker
// state is health state, not accounting, so ResetStats keeps it.
func (s *Store) BreakerTransitions() (opens, halfOpens, closes int64) {
	a := s.hp.accounts()
	return a.opens, a.halfOpens, a.closes
}

// Suspicion scores an array for the scrub scheduler
// (health.Prioritizer): stale replica copies count directly, plus the
// health scores of the shards its blocks live on, weighted by how many
// of its blocks each shard carries.
func (s *Store) Suspicion(name string) float64 {
	s.mu.Lock()
	a := s.arrays[name]
	s.mu.Unlock()
	if a == nil {
		return 0
	}
	a.amu.Lock()
	susp := 0.0
	for _, set := range a.stale {
		susp += float64(len(set))
	}
	per := map[int]int{}
	for _, order := range a.cands {
		for _, id := range order {
			per[id]++
		}
	}
	blocks := float64(len(a.cands))
	a.amu.Unlock()
	return s.hp.addScores(susp, per, blocks)
}

// healthPlane is the store's health-plane state. A store without one
// (Options.Health nil) holds a nil *healthPlane, and every method below
// treats nil as the absent plane: no spikes drained, no breaker asked or
// tripped, observations dropped, zero accounts. The read path therefore
// has one shape. The plane's clock is the front door's: the modelled
// time the section's charge returns.
//
// Injected spike seconds wait for their op on the shard that paid them
// (shard.spikes, one atomic each), not here, so attributing and draining
// them takes no lock. A healthy read locks the tracker twice (one
// breaker ask for the section, one observation) and hp.mu never.
//
// Lock discipline: hp.mu is a leaf — never held while calling into the
// tracker (whose transition callback takes hp.mu) or the store.
type healthPlane struct {
	st *Store
	tr *health.Tracker

	mu    sync.Mutex
	names map[int]string // shard id → bounded metric label (from attach)
	acct  planeAccounts

	gState     *obs.GaugeVec
	cIssued    *obs.Counter
	cWon       *obs.Counter
	cCancelled *obs.Counter
}

// planeAccounts are the plane's tallies: the tail and hedge accounts,
// which ResetStats zeroes, and the breaker transitions, which it keeps.
type planeAccounts struct {
	tailRead, tailWrite                   float64
	hedgeIssued, hedgeWon, hedgeCancelled int64
	opens, halfOpens, closes              int64
}

func newHealthPlane(st *Store, cfg health.Config) *healthPlane {
	hp := &healthPlane{
		st:    st,
		tr:    health.NewTracker(cfg),
		names: map[int]string{},
	}
	hp.tr.OnTransition(hp.noteTransition)
	return hp
}

// tracker returns the plane's tracker (nil without a plane).
func (hp *healthPlane) tracker() *health.Tracker {
	if hp == nil {
		return nil
	}
	return hp.tr
}

// snapshot returns shard id's health (a neutral ratio without a plane).
func (hp *healthPlane) snapshot(id int) health.ShardHealth {
	if hp == nil {
		return health.ShardHealth{Ratio: 1}
	}
	return hp.tr.Snapshot(id)
}

// accounts returns a copy of the plane's tallies (zero without a plane).
func (hp *healthPlane) accounts() planeAccounts {
	if hp == nil {
		return planeAccounts{}
	}
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.acct
}

// addScores adds to susp the health scores of the shards in per, each
// weighted by its share of blocks (nothing without a plane).
func (hp *healthPlane) addScores(susp float64, per map[int]int, blocks float64) float64 {
	if hp == nil || blocks == 0 {
		return susp
	}
	// Sorted shard order keeps the float sum deterministic.
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		susp += hp.tr.Score(id) * float64(per[id]) / blocks
	}
	return susp
}

// noteTransition is the tracker's breaker-transition callback: it
// updates the state gauge, tallies the traversal counters, and emits
// one health event per transition.
func (hp *healthPlane) noteTransition(tr health.Transition) {
	hp.mu.Lock()
	name := hp.names[tr.Shard]
	g := hp.gState
	switch tr.To {
	case health.Open:
		hp.acct.opens++
	case health.HalfOpen:
		hp.acct.halfOpens++
	case health.Closed:
		hp.acct.closes++
	}
	hp.mu.Unlock()
	if name != "" {
		g.With(name).Set(float64(tr.To))
	}
	if hp.st.log.Enabled(obs.LevelInfo) {
		hp.st.log.Info("health", "breaker."+tr.To.String(),
			obs.F("shard", tr.Shard),
			obs.F("from", tr.From.String()),
			obs.F("now", tr.Now))
	}
}

// attach records the shard's bounded metric label, publishes its
// initial breaker state, and attributes the shard's injected latency
// spikes to it, so the plane can score and hedge on them.
func (hp *healthPlane) attach(sh *shard) {
	if hp == nil {
		return
	}
	hp.mu.Lock()
	hp.names[sh.id] = sh.name
	g := hp.gState
	hp.mu.Unlock()
	g.With(sh.name).Set(float64(health.Closed))
	if sh.inj != nil {
		sh.inj.SetLatencySink(sh.addSpike)
	}
}

func (hp *healthPlane) setMetrics(reg *obs.Registry) {
	if hp == nil {
		return
	}
	hp.mu.Lock()
	hp.gState = reg.GaugeVec(MetricBreakerState, "shard")
	hp.cIssued = reg.Counter(MetricHedgeIssued)
	hp.cWon = reg.Counter(MetricHedgeWon)
	hp.cCancelled = reg.Counter(MetricHedgeCancelled)
	g := hp.gState
	names := make([]string, 0, len(hp.names))
	for _, n := range hp.names {
		names = append(names, n)
	}
	hp.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		g.With(n).Set(float64(health.Closed))
	}
}

// drain takes the shard's accumulated spike seconds (see
// shard.takeSpikes). The injector sink fires synchronously on the op's
// goroutine, and a collective runs its sub-operations one at a time on
// its caller's goroutine, so draining right after an op yields exactly
// that op's spikes (retried attempts lump together). Without a plane no
// sink is installed: 0, and the shard's account is not touched.
func (hp *healthPlane) drain(sh *shard) float64 {
	if hp == nil {
		return 0
	}
	return sh.takeSpikes()
}

func (hp *healthPlane) resetAccounts() {
	if hp == nil {
		return
	}
	hp.mu.Lock()
	hp.acct.tailRead, hp.acct.tailWrite = 0, 0
	hp.acct.hedgeIssued, hp.acct.hedgeWon, hp.acct.hedgeCancelled = 0, 0, 0
	hp.mu.Unlock()
}

// observe feeds one op into the tracker. ratio is observed/baseline
// modelled seconds.
func (hp *healthPlane) observe(id int, now, ratio float64, ok bool) {
	if hp != nil {
		hp.tr.Observe(id, now, ratio, ok)
	}
}

// observeWrite feeds one replica write to shard sh (id) into the
// tracker and the spikes it paid into the write tail. Writes are
// observed (they feed scoring and heal the injector's windows) but never
// breaker-gated: a write always fans out to every replica for
// durability.
func (hp *healthPlane) observeWrite(sh *shard, id int, now float64, shape []int64, ok bool) {
	if hp == nil {
		return
	}
	spikes := sh.takeSpikes()
	n := int64(1)
	for _, d := range shape {
		n *= d
	}
	hp.observe(id, now, ratioOf(hp.st.opt.Disk.WriteTime(n*8, 1), spikes), ok)
	hp.addTail(&hp.acct.tailWrite, spikes)
}

// askBreakers asks, in one tracker call at modelled time now, the
// breakers of the non-stale candidates of blocks [b0, b1) (cands is the
// placement), each shard once, in order of first appearance — the order
// in which per-block asks would have made their lazy open → half-open
// transitions. It records the answers in sc for scratch.tripped.
// Without a plane it asks nothing, and no breaker trips.
func (hp *healthPlane) askBreakers(sc *scratch, cands [][]int, b0, b1 int, now float64) {
	if hp == nil {
		return
	}
	if len(sc.asked) < len(sc.reps) {
		sc.asked = make([]int, len(sc.reps))
	}
	for b := b0; b < b1; b++ {
		for i, id := range cands[b] {
			if !sc.staleAt(int64(b), i) && sc.asked[id] == 0 {
				sc.ask = append(sc.ask, id)
				sc.asked[id] = len(sc.ask)
			}
		}
	}
	if len(sc.ask) == 0 {
		return
	}
	sc.state = slices.Grow(sc.state[:0], len(sc.ask))[:len(sc.ask)]
	hp.tr.States(sc.ask, now, sc.state)
}

// openAt reports whether the shard's breaker is open at modelled time
// now without the lazy transition, so it is safe under the store's
// lock: a shard past its cooldown reads half-open. Never without a
// plane.
func (hp *healthPlane) openAt(id int, now float64) bool {
	return hp != nil && hp.tr.StateAt(id, now) == health.Open
}

// addTail adds paid spike seconds to one of the plane's tail accounts.
func (hp *healthPlane) addTail(acct *float64, sec float64) {
	if sec <= 0 {
		return
	}
	hp.mu.Lock()
	*acct += sec
	hp.mu.Unlock()
}

// ratioOf converts an op's spike seconds into a latency ratio against
// its baseline modelled cost.
func ratioOf(base, spikes float64) float64 {
	if base <= 0 || spikes <= 0 {
		return 1
	}
	return 1 + spikes/base
}

func (hp *healthPlane) noteHedge(event, array string, block int64, from, to int, c **obs.Counter, n *int64) {
	hp.mu.Lock()
	*n++
	cnt := *c
	hp.mu.Unlock()
	cnt.Inc()
	if hp.st.log.Enabled(obs.LevelInfo) {
		hp.st.log.Info("health", event,
			obs.F("array", array),
			obs.F("block", block),
			obs.F("shard", from),
			obs.F("hedge_shard", to))
	}
}

// hedgeAfterRead scores a successful preferred-replica read and, when
// its observed latency ratio crosses the tracker's hedge threshold,
// races the same section read against the next usable replica, keeping
// the modelled winner. now is the section's modelled issue time.
//
// The race is decided on modelled time: the preferred replica finishes
// at base+spikes; the hedge launches once the wait passes thr×base and
// takes one replica read (plus its own spikes) from there. Either way
// the front door stays one single-disk-equivalent op — the hedge
// sub-read is charged by the shard that served it, and the experienced
// extra wait lands in the tail account.
//
// Determinism note: replicas of a block are bit-identical once staged
// (stale copies are excluded from hedge targets by construction — a
// stale shard is ordered last and a read served by it has no further
// candidates), so taking the hedge copy never changes result bytes.
func (a *Array) hedgeAfterRead(sc *scratch, slo, sshape []int64, sbuf []float64, r run, ci int, sh *shard, now float64) {
	hp := a.st.hp
	id := sh.id
	spikes := hp.drain(sh)
	if spikes <= 0 {
		hp.observe(id, now, 1, true)
		return
	}
	// Spikes only reach a shard through the plane's latency sink, so the
	// plane is present from here on.
	n := int64(1)
	for _, d := range sshape {
		n *= d
	}
	base := a.st.opt.Disk.ReadTime(n*8, 1)
	ratio := ratioOf(base, spikes)
	hp.observe(id, now, ratio, true)
	thr := hp.tr.HedgeRatio()
	if ratio < thr {
		hp.addTail(&hp.acct.tailRead, spikes)
		return
	}
	// Hedge target: the next replica in preference order with a live
	// shard and a local copy. Stale replicas never get here — they sort
	// after every healthy candidate, and a read they served has no
	// further candidates to hedge to.
	var hrep replica
	for _, cand := range r.order[ci+1:] {
		if rep := sc.reps[cand]; rep.sh != nil && rep.la != nil {
			hrep = rep
			break
		}
	}
	if hrep.sh == nil {
		hp.addTail(&hp.acct.tailRead, spikes)
		return
	}
	hid := hrep.sh.id
	hp.noteHedge("hedge.issued", a.name, r.firstBlock, id, hid, &hp.cIssued, &hp.acct.hedgeIssued)
	// Hedge into a private buffer: a failed hedge read may poison its
	// buffer (the injector performs, then fails), and sbuf already holds
	// good data from the preferred replica.
	var tmp []float64
	if sbuf != nil {
		tmp = make([]float64, len(sbuf))
	}
	herr := hrep.la.ReadSection(slo, sshape, tmp)
	hspikes := hp.drain(hrep.sh)
	hp.observe(hid, now, ratioOf(base, hspikes), herr == nil)
	lPref := base + spikes
	lHedge := float64(thr*base) + base + hspikes
	if herr == nil && lHedge < lPref {
		copy(sbuf, tmp)
		a.st.recordDemotion(id, DemoteHedgeLost)
		hp.noteHedge("hedge.won", a.name, r.firstBlock, id, hid, &hp.cWon, &hp.acct.hedgeWon)
		hp.addTail(&hp.acct.tailRead, lHedge-base)
	} else {
		hp.noteHedge("hedge.cancelled", a.name, r.firstBlock, id, hid, &hp.cCancelled, &hp.acct.hedgeCancelled)
		hp.addTail(&hp.acct.tailRead, spikes)
	}
}
