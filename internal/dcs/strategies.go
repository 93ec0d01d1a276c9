package dcs

import (
	"math"
	"math/bits"
)

// dlmOnce runs discrete Lagrange-multiplier search from one start point:
// greedy best-improvement descent on L(x,μ) over the single-variable
// neighbourhood; at discrete local minima of L, multipliers of violated
// constraints are increased (ascent), reshaping L until the trajectory is
// pushed into the feasible region; a feasible local minimum is a discrete
// saddle point and terminates the start.
func (s *solver) dlmOnce(start []int64) {
	x := append([]int64(nil), start...)
	f, g := s.eval(x)
	if s.flips.keep == nil {
		s.flips.init(s, len(g))
	}
	mu := make([]float64, len(g))
	s.curMu = mu
	// Initialize multipliers on the objective's scale so that a unit
	// relative violation outweighs typical objective differences.
	muBase := math.Max(1, math.Abs(f))
	for i := range mu {
		mu[i] = muBase
	}
	curL := lagrangian(f, g, mu)

	budget := s.opt.MaxEvals / s.opt.Restarts
	startEvals := s.evals
	left := func() bool { return s.budgetLeft() && s.evals-startEvals < budget }

	stale := 0 // consecutive rounds without variable movement
	var moveBuf []int64
	groupScratch := append([]int64(nil), x...)
	for left() {
		// Best-improvement pass over all single-variable moves.
		bestL := curL
		bestVar, bestVal := -1, int64(0)
		for i := 0; i < s.p.Dim() && left(); i++ {
			old := x[i]
			moveBuf = s.moves(i, old, moveBuf)
			for _, nv := range moveBuf {
				x[i] = nv
				nf, ng := s.eval(x)
				if s.flips.keep[i] {
					s.flips.put(i, nf, ng)
				}
				if l := lagrangian(nf, ng, mu); l < bestL-1e-12 {
					bestL, bestVar, bestVal = l, i, nv
				}
			}
			x[i] = old
		}
		// Group moves: reassign a whole categorical choice at once.
		bestGroup, bestCode := -1, int64(0)
		for gi, grp := range s.groups {
			if !left() {
				break
			}
			cur := groupCode(grp, x)
			copy(groupScratch, x)
			for code := int64(0); code < grp.Codes; code++ {
				if code == cur {
					continue
				}
				setGroupCode(grp, groupScratch, code)
				nf, ng, ok := s.flips.lookup(grp, cur^code)
				if ok {
					s.record(groupScratch, nf, ng)
				} else {
					nf, ng = s.eval(groupScratch)
				}
				if l := lagrangian(nf, ng, mu); l < bestL-1e-12 {
					bestL, bestVar = l, -1
					bestGroup, bestCode = gi, code
				}
			}
			setGroupCode(grp, groupScratch, cur)
		}
		switch {
		case bestGroup >= 0:
			setGroupCode(s.groups[bestGroup], x, bestCode)
			curL = bestL
			stale = 0
			continue
		case bestVar >= 0:
			x[bestVar] = bestVal
			curL = bestL
			stale = 0
			continue
		}
		// Discrete local minimum of L.
		_, g = s.eval(x)
		violated := false
		for _, v := range g {
			if v > 0 {
				violated = true
				break
			}
		}
		if violated {
			// Multiplier ascent on violated constraints.
			for i, v := range g {
				if v > 0 {
					mu[i] += float64(muGrowth * muBase * (1 + v))
				}
			}
			stale++
		} else {
			// Feasible saddle point (recorded by eval); basin-hop to look
			// for a better one within this start's budget.
			stale = 999
		}
		if stale > 25 {
			for k := 0; k < 1+s.p.Dim()/3; k++ {
				i := s.rng.Intn(s.p.Dim())
				x[i] = s.randomValue(i)
			}
			stale = 0
		}
		f, g = s.eval(x)
		curL = lagrangian(f, g, mu)
	}
}

// flipScores is DLM's record of the single-bit flips scored in the
// current pass. Setting a binary group whose bits are all 0/1 variables
// from code cur to cur^(1<<b) gives, element for element, the point of
// the pass's flip of bit b, so the group scan records the kept score
// instead of evaluating that point again. Groups with a wider-ranged bit
// are always evaluated. The group scan runs only after the
// single-variable scan has scored every variable (both stop together
// when the budget runs out), so every kept score is from the current
// pass.
type flipScores struct {
	// keep[i] marks a bit of a binary group whose bits all range over
	// 0..1; only those flips are kept.
	keep []bool
	f    []float64
	g    []float64 // g[i*m:][:m]: the violations of variable i's flip
	m    int
}

// init sizes the buffers once per solve; m is the number of violations.
func (fs *flipScores) init(s *solver, m int) {
	n := s.p.Dim()
	fs.keep = make([]bool, n)
	fs.f = make([]float64, n)
	fs.g = make([]float64, n*m)
	fs.m = m
	for _, grp := range s.groups {
		ok := true
		for _, v := range s.vars[grp.Offset:][:grp.Len] {
			ok = ok && v.lo == 0 && v.hi == 1
		}
		for b := 0; b < grp.Len; b++ {
			fs.keep[grp.Offset+b] = ok
		}
	}
}

// put keeps the score of this pass's flip of variable i.
func (fs *flipScores) put(i int, f float64, g []float64) {
	fs.f[i] = f
	copy(fs.g[i*fs.m:][:fs.m], g)
}

// lookup returns the kept score of the point a group move reaches when
// the move, whose old and new codes differ in the bits of d, is a kept
// flip.
func (fs *flipScores) lookup(grp Group, d int64) (float64, []float64, bool) {
	if d&(d-1) != 0 {
		return 0, nil, false
	}
	i := grp.Offset + bits.TrailingZeros64(uint64(d))
	if !fs.keep[i] {
		return 0, nil, false
	}
	return fs.f[i], fs.g[i*fs.m:][:fs.m], true
}

// csaOnce runs constrained simulated annealing: random single-variable
// moves accepted by the Metropolis rule on L, with occasional stochastic
// multiplier ascent, under a geometric cooling schedule.
func (s *solver) csaOnce(start []int64) {
	x := append([]int64(nil), start...)
	f, g := s.eval(x)
	mu := make([]float64, len(g))
	s.curMu = mu
	muBase := math.Max(1, math.Abs(f))
	for i := range mu {
		mu[i] = muBase
	}
	curL := lagrangian(f, g, mu)

	temp := math.Max(1, math.Abs(f)) // initial temperature on f's scale
	cooling := 0.999
	budget := s.opt.MaxEvals / s.opt.Restarts
	startEvals := s.evals
	var moveBuf []int64
	for s.budgetLeft() && s.evals-startEvals < budget {
		if s.rng.Float64() < 0.05 {
			// Multiplier ascent with probability 5% (the CSA "dual" move).
			f, g = s.eval(x)
			for i, v := range g {
				if v > 0 {
					mu[i] += float64(muGrowth * muBase * v)
				}
			}
			curL = lagrangian(f, g, mu)
			continue
		}
		if len(s.groups) > 0 && s.rng.Float64() < 0.2 {
			// Group move: reassign one categorical choice.
			grp := s.groups[s.rng.Intn(len(s.groups))]
			old := groupCode(grp, x)
			code := s.rng.Int63n(grp.Codes)
			if code == old {
				continue
			}
			setGroupCode(grp, x, code)
			nf, ng := s.eval(x)
			l := lagrangian(nf, ng, mu)
			if l <= curL || s.rng.Float64() < math.Exp((curL-l)/temp) {
				curL = l
			} else {
				setGroupCode(grp, x, old)
			}
			temp *= cooling
			continue
		}
		i := s.rng.Intn(s.p.Dim())
		moveBuf = s.moves(i, x[i], moveBuf)
		if len(moveBuf) == 0 {
			continue
		}
		nv := moveBuf[s.rng.Intn(len(moveBuf))]
		old := x[i]
		x[i] = nv
		nf, ng := s.eval(x)
		l := lagrangian(nf, ng, mu)
		if l <= curL || s.rng.Float64() < math.Exp((curL-l)/temp) {
			curL = l
		} else {
			x[i] = old
		}
		temp *= cooling
	}
}

// randomSearch samples random points, keeping the best feasible one (the
// eval bookkeeping in eval() records it).
func (s *solver) randomSearch() {
	s.restarts = 1
	s.mRestarts.Inc()
	s.emit("restart", math.Inf(1), false, 0)
	n := s.p.Dim()
	x := make([]int64, n)
	for s.budgetLeft() {
		for i := range x {
			x[i] = s.randomValue(i)
		}
		s.eval(x)
	}
}
