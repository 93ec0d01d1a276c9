package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// SolveEvent is one point of a solver convergence curve. Kinds mirror the
// DCS solver's observer events: "restart" (a new start point begins),
// "improvement" (a new best feasible point), "final" (the search ended).
// Best is +Inf until a feasible point exists.
type SolveEvent struct {
	Kind string
	// Lane is the portfolio lane the event comes from (0 for a
	// single-lane solve).
	Lane         int
	Restart      int
	Evals        int
	Best         float64
	Feasible     bool
	MaxViolation float64
	MuNorm       float64
}

// Convergence records a solver's event stream into a curve —
// the per-iteration view behind a Table-2-style solver comparison.
// A nil *Convergence is safe: Record no-ops.
type Convergence struct {
	mu     sync.Mutex
	events []SolveEvent
}

// Record appends one event.
func (c *Convergence) Record(e SolveEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded curve in event order.
func (c *Convergence) Events() []SolveEvent {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SolveEvent(nil), c.events...)
}

// Final returns the last recorded event (the search outcome) and whether
// any event was recorded.
func (c *Convergence) Final() (SolveEvent, bool) {
	if c == nil {
		return SolveEvent{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return SolveEvent{}, false
	}
	return c.events[len(c.events)-1], true
}

// Improvements returns only the improvement events — the monotonically
// non-increasing best-objective staircase.
func (c *Convergence) Improvements() []SolveEvent {
	var out []SolveEvent
	for _, e := range c.Events() {
		if e.Kind == "improvement" {
			out = append(out, e)
		}
	}
	return out
}

// Reset clears the curve.
func (c *Convergence) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// String renders a compact text view of the curve: one line per event.
func (c *Convergence) String() string {
	var b strings.Builder
	for _, e := range c.Events() {
		best := "-"
		if !math.IsInf(e.Best, 0) {
			best = fmt.Sprintf("%.4g", e.Best)
		}
		fmt.Fprintf(&b, "[eval %7d] %-11s restart %d  best %-12s viol %.3g  |mu| %.3g\n",
			e.Evals, e.Kind, e.Restart, best, e.MaxViolation, e.MuNorm)
	}
	return b.String()
}
