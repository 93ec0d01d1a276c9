// Package health is the deterministic shard-health plane: per-shard
// EWMA scoring of modelled latency and typed-error rates, a three-state
// circuit breaker per shard, and a quantile-derived hedge threshold.
//
// Everything runs on the modelled clock — callers pass "now" as modelled
// seconds (the ring uses its front-door disk time) and latency as a
// ratio of observed to baseline modelled cost. No wall clock is read
// anywhere in the scoring path, so breaker transitions and hedge
// decisions are pure functions of the seeded op stream and stay
// bit-identical across same-seed runs.
package health

import (
	"encoding/json"
	"fmt"
	"sync"
)

// State is a circuit-breaker state. The numeric values double as the
// ring.breaker.state gauge encoding.
type State int

const (
	// Closed admits traffic normally.
	Closed State = iota
	// HalfOpen admits traffic as probes: a run of successes closes the
	// breaker, any failure reopens it.
	HalfOpen
	// Open demotes the shard out of preferred-replica position until the
	// cooldown elapses on the modelled clock.
	Open
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON renders the state name, keeping tier reports readable.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Config tunes the tracker. The zero value selects the defaults noted
// per field.
type Config struct {
	// Alpha is the EWMA smoothing factor in (0, 1]. Default 0.25.
	Alpha float64
	// LatencyBudget opens the breaker when the EWMA latency ratio
	// (observed/baseline modelled seconds) exceeds it, and is the
	// instantaneous bar a half-open probe must clear. Default 3.
	LatencyBudget float64
	// ErrorBudget opens the breaker when the EWMA failure rate exceeds
	// it. Default 0.5.
	ErrorBudget float64
	// MinObservations is how many observations a shard needs since its
	// last close before budget breaches can open the breaker, so one
	// early spike cannot trip it. Default 8.
	MinObservations int64
	// CooldownSeconds is the modelled time an open breaker waits before
	// going half-open. Default 0.05.
	CooldownSeconds float64
	// ProbeSuccesses closes a half-open breaker after that many
	// consecutive successful probes. Default 3.
	ProbeSuccesses int
	// HedgeQuantile picks the latency-ratio quantile the hedge threshold
	// derives from. Default 0.9.
	HedgeQuantile float64
	// HedgeMultiplier scales the quantile into the hedge threshold.
	// Default 1.5.
	HedgeMultiplier float64
	// MinHedgeRatio floors the hedge threshold so a uniformly fast
	// history cannot make every read hedge. Default 2.
	MinHedgeRatio float64
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 3
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = 0.5
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.CooldownSeconds <= 0 {
		c.CooldownSeconds = 0.05
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 3
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMultiplier <= 0 {
		c.HedgeMultiplier = 1.5
	}
	if c.MinHedgeRatio <= 1 {
		c.MinHedgeRatio = 2
	}
	return c
}

// Transition is one breaker state change, stamped with the modelled
// time it happened at.
type Transition struct {
	Shard    int
	From, To State
	Now      float64
}

// ShardHealth is a point-in-time snapshot of one shard's scoring state.
type ShardHealth struct {
	// Ratio is the EWMA of observed/baseline latency ratios (1 = at
	// baseline).
	Ratio float64 `json:"ratio"`
	// ErrRate is the EWMA failure rate in [0, 1].
	ErrRate float64 `json:"err_rate"`
	// Observations counts ops observed since the last breaker close.
	Observations int64 `json:"observations"`
	// State is the breaker state.
	State State `json:"state"`
}

// ratioBounds are the geometric bucket upper bounds of the global
// latency-ratio histogram the hedge threshold is derived from; the last
// bucket is open-ended.
var ratioBounds = [...]float64{1.25, 1.5, 2, 3, 5, 8, 12, 20, 50}

type shardState struct {
	ewmaRatio float64
	ewmaErr   float64
	obsN      int64
	state     State
	openedAt  float64
	probeOK   int
}

// Tracker scores shards and drives their breakers. All methods are
// safe for concurrent use. Shard ids are small non-negative integers
// (a ring's shard indices): the state lives in a slice indexed by id.
type Tracker struct {
	cfg Config

	mu     sync.Mutex
	shards []shardState
	hist   [len(ratioBounds) + 1]int64
	histN  int64
	onTr   func(Transition)
}

// NewTracker builds a tracker with cfg's missing fields defaulted.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.withDefaults()}
}

// OnTransition installs the breaker transition callback. It is invoked
// outside the tracker's lock, in the goroutine whose observation or
// state query caused the transition; callers emit events and gauges
// from it and must not re-enter the tracker synchronously.
func (t *Tracker) OnTransition(fn func(Transition)) {
	t.mu.Lock()
	t.onTr = fn
	t.mu.Unlock()
}

// shardLocked returns shard id's state, growing the table with fresh
// (closed, at-baseline) shards up to id. The pointer is valid until the
// table next grows; callers hold t.mu and use it before releasing.
func (t *Tracker) shardLocked(id int) *shardState {
	for len(t.shards) <= id {
		t.shards = append(t.shards, shardState{ewmaRatio: 1})
	}
	return &t.shards[id]
}

func (t *Tracker) setStateLocked(id int, sh *shardState, to State, now float64) Transition {
	tr := Transition{Shard: id, From: sh.state, To: to, Now: now}
	sh.state = to
	sh.probeOK = 0
	if to == Open {
		sh.openedAt = now
	}
	return tr
}

// Observe records one op on shard: ratio is observed/baseline modelled
// seconds (clamped to ≥ 1), ok whether the op succeeded. now is the
// modelled clock. It drives the breaker: budget breaches open it,
// half-open probe results close or reopen it.
func (t *Tracker) Observe(shard int, now, ratio float64, ok bool) {
	if !(ratio >= 1) { // also catches NaN
		ratio = 1
	}
	t.mu.Lock()
	sh := t.shardLocked(shard)
	b := 0
	for b < len(ratioBounds) && ratio > ratioBounds[b] {
		b++
	}
	t.hist[b]++
	t.histN++
	a := t.cfg.Alpha
	sh.ewmaRatio += float64(a * (ratio - sh.ewmaRatio))
	f := 0.0
	if !ok {
		f = 1
	}
	sh.ewmaErr += float64(a * (f - sh.ewmaErr))
	sh.obsN++
	var trs []Transition
	switch sh.state {
	case HalfOpen:
		if ok && ratio <= t.cfg.LatencyBudget {
			sh.probeOK++
			if sh.probeOK >= t.cfg.ProbeSuccesses {
				trs = append(trs, t.setStateLocked(shard, sh, Closed, now))
				sh.ewmaRatio, sh.ewmaErr, sh.obsN = 1, 0, 0
			}
		} else {
			trs = append(trs, t.setStateLocked(shard, sh, Open, now))
		}
	case Closed:
		if sh.obsN >= t.cfg.MinObservations &&
			(sh.ewmaErr > t.cfg.ErrorBudget || sh.ewmaRatio > t.cfg.LatencyBudget) {
			trs = append(trs, t.setStateLocked(shard, sh, Open, now))
		}
	}
	fn := t.onTr
	t.mu.Unlock()
	if fn != nil {
		for _, tr := range trs {
			fn(tr)
		}
	}
}

// State returns the shard's breaker state at modelled time now,
// performing the lazy open → half-open transition once the cooldown has
// elapsed (and firing the transition callback when it does).
func (t *Tracker) State(shard int, now float64) State {
	var st [1]State
	t.States([]int{shard}, now, st[:])
	return st[0]
}

// States writes into out[i] the breaker state of shards[i] at modelled
// time now, exactly as State called on each shard in order would, under
// one lock: lazy open → half-open transitions happen in that order, and
// their callbacks fire in that order once the lock is released. A read
// that routes over several replicas asks their breakers in one call.
func (t *Tracker) States(shards []int, now float64, out []State) {
	var trs []Transition
	t.mu.Lock()
	for i, id := range shards {
		sh := t.shardLocked(id)
		if sh.state == Open && now >= sh.openedAt+t.cfg.CooldownSeconds {
			trs = append(trs, t.setStateLocked(id, sh, HalfOpen, now))
		}
		out[i] = sh.state
	}
	fn := t.onTr
	t.mu.Unlock()
	if fn != nil {
		for _, tr := range trs {
			fn(tr)
		}
	}
}

// StateAt reports the state without side effects: an open breaker past
// its cooldown reports half-open but stays open until the next State
// call. Safe to call while holding locks the transition callback needs.
func (t *Tracker) StateAt(shard int, now float64) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := t.shardLocked(shard)
	if sh.state == Open && now >= sh.openedAt+t.cfg.CooldownSeconds {
		return HalfOpen
	}
	return sh.state
}

// ForceState pins a shard's breaker for tests and operator tooling.
func (t *Tracker) ForceState(shard int, st State, now float64) {
	t.mu.Lock()
	sh := t.shardLocked(shard)
	trs := t.setStateLocked(shard, sh, st, now)
	fn := t.onTr
	t.mu.Unlock()
	if fn != nil && trs.From != trs.To {
		fn(trs)
	}
}

// Snapshot returns the shard's current scoring state (no lazy breaker
// transition).
func (t *Tracker) Snapshot(shard int) ShardHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := t.shardLocked(shard)
	return ShardHealth{Ratio: sh.ewmaRatio, ErrRate: sh.ewmaErr, Observations: sh.obsN, State: sh.state}
}

// Score is a scalar suspicion figure: 0 for a healthy shard, growing
// with the EWMA error rate and excess latency ratio. The scrub
// scheduler uses it to order its queue.
func (t *Tracker) Score(shard int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := t.shardLocked(shard)
	ex := sh.ewmaRatio - 1
	if ex < 0 {
		ex = 0
	}
	return sh.ewmaErr + ex/t.cfg.LatencyBudget
}

// HedgeRatio is the latency-ratio threshold beyond which a read should
// hedge: HedgeMultiplier × the HedgeQuantile of the global ratio
// histogram, floored at MinHedgeRatio.
func (t *Tracker) HedgeRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	thr := t.cfg.MinHedgeRatio
	if t.histN > 0 {
		var cum int64
		q := ratioBounds[len(ratioBounds)-1] * 2
		for i, n := range t.hist {
			cum += n
			if float64(cum) >= t.cfg.HedgeQuantile*float64(t.histN) {
				if i < len(ratioBounds) {
					q = ratioBounds[i]
				}
				break
			}
		}
		if v := t.cfg.HedgeMultiplier * q; v > thr {
			thr = v
		}
	}
	return thr
}
