package dcs

// This file implements the racing portfolio behind WithPortfolio: K
// independently seeded lanes (cycling the DLM, CSA, and random
// strategies) run concurrently on a goroutine pool, but advance in
// lockstep rounds of gateEvery evaluations. At each round boundary the
// driver inspects a deterministic snapshot of every lane; the first
// round in which any lane has converged on a feasible point ends the
// race, the remaining lanes are stopped through their gates and the
// shared context, and the best boundary snapshot wins (ties break to the
// lowest lane index — seed order). Because the stop decision and the
// winner are pure functions of evaluation counts, never of wall-clock
// scheduling, the same seeds always produce the same winner and the same
// point, even under the race detector.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// staleLimit is the number of consecutive gate boundaries a lane's best
// feasible objective must stay unchanged for the lane to count as
// converged.
const staleLimit = 2

// laneSnapshot is one lane's deterministic state at a gate boundary or at
// its natural completion.
type laneSnapshot struct {
	evals     int
	restarts  int
	best      []int64 // best feasible point (nil while none)
	bestF     float64
	leastBadX []int64 // least-infeasible fallback
	leastBad  float64
}

// snapshot copies the solver's racing-relevant state.
func (s *solver) snapshot() laneSnapshot {
	return laneSnapshot{
		evals:     s.evals,
		restarts:  s.restarts,
		best:      append([]int64(nil), s.best...),
		bestF:     s.bestF,
		leastBadX: append([]int64(nil), s.leastBadX...),
		leastBad:  s.leastBad,
	}
}

type laneMsg struct {
	lane int
	snap laneSnapshot
	// done: the lane finished its own budget; it will send nothing more.
	done bool
}

// laneSeed derives lane i's seed; lane 0 keeps the caller's seed so a
// K=1-equivalent lane always exists.
func laneSeed(seed int64, i int) int64 {
	const golden = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return seed + int64(i)*golden
}

// laneStrategy cycles the lanes through all strategies starting from the
// caller's choice, so a portfolio always mixes DLM, CSA, and random.
func laneStrategy(base Strategy, i int) Strategy {
	return Strategy((int(base) + i) % 3)
}

// solvePortfolio races opt.Portfolio lanes. opt has defaults applied.
func solvePortfolio(ctx context.Context, p Problem, opt options) (Result, error) {
	k := opt.Portfolio
	laneBudget := opt.MaxEvals / k
	if laneBudget < 1 {
		laneBudget = 1
	}
	gateEvery := laneBudget / 8
	if gateEvery < 256 {
		gateEvery = 256
	}
	if gateEvery > 8192 {
		gateEvery = 8192
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make(chan laneMsg, k)
	cont := make([]chan bool, k)
	var obsMu sync.Mutex
	lanes := make([]options, k)
	bufs := make([]*laneLog, k)
	for i := 0; i < k; i++ {
		lo := opt
		lo.Portfolio = 0
		lo.MaxEvals = laneBudget
		if lo.Restarts > 2 {
			lo.Restarts = lo.Restarts / 2
		}
		lo.Seed = laneSeed(opt.Seed, i)
		lo.Strategy = laneStrategy(opt.Strategy, i)
		if i > 0 {
			// Lane 0 exploits the warm start; the other lanes explore.
			lo.Start = nil
		}
		lo.lane = i
		lo.gateEvery = gateEvery
		// Lanes never write the shared log directly: concurrent lanes
		// would interleave events in scheduler order. Each lane queues
		// into a private buffer the coordinator flushes in lane order.
		bufs[i] = &laneLog{enabled: opt.Log.Enabled(obs.LevelInfo)}
		lo.logBuf = bufs[i]
		lo.Log = nil
		if opt.Observer != nil {
			inner := opt.Observer
			lo.Observer = func(e Event) {
				obsMu.Lock()
				inner(e)
				obsMu.Unlock()
			}
		}
		lanes[i] = lo
		cont[i] = make(chan bool)
	}

	// Each lane's last act is an unbuffered send on exited: the
	// coordinator joins the race by receiving it from every lane.
	exited := make(chan struct{})
	for i := 0; i < k; i++ {
		i := i
		lo := lanes[i]
		lo.gate = func(snap laneSnapshot) bool {
			reports <- laneMsg{lane: i, snap: snap}
			return <-cont[i]
		}
		go func() {
			s := newSolver(raceCtx, p, lo)
			s.search()
			if !s.stopped {
				reports <- laneMsg{lane: i, snap: s.snapshot(), done: true}
			}
			exited <- struct{}{}
		}()
	}

	// flushLogs drains every lane's queued events into the shared log in
	// lane order. Called only while every live lane is parked at its
	// gate (or finished), so the buffers are quiescent.
	flushLogs := func() {
		for i := 0; i < k; i++ {
			for _, e := range bufs[i].events {
				logSolveEvent(opt.Log, e)
			}
			bufs[i].events = bufs[i].events[:0]
		}
	}

	states := make([]laneSnapshot, k)
	haveState := make([]bool, k)
	done := make([]bool, k)
	stale := make([]int, k)
	lastBest := make([]float64, k)
	seenBest := make([]bool, k)
	live := k
	for live > 0 {
		// One lockstep round: every live lane reports its next gate
		// boundary or its natural completion.
		expect := live
		gated := make([]bool, k)
		for n := 0; n < expect; n++ {
			msg := <-reports
			states[msg.lane] = msg.snap
			haveState[msg.lane] = true
			if msg.done {
				done[msg.lane] = true
				live--
			} else {
				gated[msg.lane] = true
			}
		}
		flushLogs()
		// Convergence check over the boundary snapshots: a lane converged
		// if it finished with a feasible point, or its feasible best has
		// been flat for staleLimit consecutive boundaries.
		decided := live == 0
		for i := 0; i < k; i++ {
			if !haveState[i] || states[i].best == nil {
				continue
			}
			if done[i] {
				decided = true
				continue
			}
			if seenBest[i] && states[i].bestF == lastBest[i] {
				stale[i]++
			} else {
				stale[i] = 0
				lastBest[i] = states[i].bestF
				seenBest[i] = true
			}
			if stale[i] >= staleLimit {
				decided = true
			}
		}
		for i := 0; i < k; i++ {
			if gated[i] {
				cont[i] <- !decided
			}
		}
		if decided {
			break
		}
	}
	cancel()
	for i := 0; i < k; i++ {
		<-exited
	}
	flushLogs()

	totalEvals, totalRestarts := 0, 0
	for i := 0; i < k; i++ {
		if haveState[i] {
			totalEvals += states[i].evals
			totalRestarts += states[i].restarts
		}
	}

	// Winner: best feasible objective, ties to the lowest lane index.
	winner := -1
	for i := 0; i < k; i++ {
		if !haveState[i] || states[i].best == nil {
			continue
		}
		if winner == -1 || states[i].bestF < states[winner].bestF {
			winner = i
		}
	}
	if winner >= 0 {
		res := Result{
			X:              states[winner].best,
			Objective:      states[winner].bestF,
			Feasible:       true,
			Evals:          totalEvals,
			Restarts:       totalRestarts,
			Lanes:          k,
			WinnerLane:     winner,
			WinnerSeed:     lanes[winner].Seed,
			WinnerStrategy: lanes[winner].Strategy,
		}
		opt.Log.Info("dcs", "lane.win",
			obs.F("lane", winner),
			obs.F("lanes", k),
			obs.F("seed", lanes[winner].Seed),
			obs.F("strategy", lanes[winner].Strategy.String()),
			obs.F("best", res.Objective),
			obs.F("evals", totalEvals))
		emitPortfolioFinal(opt, res, 0)
		return res, nil
	}

	// No feasible lane: report the least-infeasible point across lanes.
	fallback := -1
	for i := 0; i < k; i++ {
		if !haveState[i] || states[i].leastBadX == nil {
			continue
		}
		if fallback == -1 || states[i].leastBad < states[fallback].leastBad {
			fallback = i
		}
	}
	if fallback == -1 {
		return Result{}, fmt.Errorf("dcs: search stopped before evaluating any point: %w", ctx.Err())
	}
	x := states[fallback].leastBadX
	res := Result{
		X:              x,
		Objective:      p.Objective(x),
		Feasible:       false,
		Evals:          totalEvals,
		Restarts:       totalRestarts,
		Lanes:          k,
		WinnerLane:     fallback,
		WinnerSeed:     lanes[fallback].Seed,
		WinnerStrategy: lanes[fallback].Strategy,
	}
	emitPortfolioFinal(opt, res, maxOf(p.Violations(x)))
	return res, nil
}

// emitPortfolioFinal delivers the race's single "final" event. All lanes
// have been joined, so the raw observer is safe to call directly.
func emitPortfolioFinal(opt options, res Result, maxViol float64) {
	e := Event{
		Kind:         "final",
		Lane:         res.WinnerLane,
		Restart:      res.Restarts,
		Evals:        res.Evals,
		Best:         res.Objective,
		Feasible:     res.Feasible,
		MaxViolation: maxViol,
	}
	if opt.Observer != nil {
		opt.Observer(e)
	}
	logSolveEvent(opt.Log, e)
}
