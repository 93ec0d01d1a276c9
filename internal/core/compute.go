package core

import (
	"fmt"

	"repro/internal/loops"
)

// Flops returns the exact floating-point operation count of an abstract
// program: for every accumulation statement, 2·(factors−1)+1 ≈ 2·factors
// operations per iteration of its full loop space (one multiply per extra
// factor plus the accumulate add; we charge 2 per factor for the
// multiply-add convention).
func Flops(p *loops.Program) float64 {
	total := 0.0
	for _, site := range p.Statements() {
		space := 1.0
		for _, l := range site.Path {
			space *= float64(p.Ranges[l.Index])
		}
		total += float64(space * float64(2*len(site.Stmt.Factors)))
	}
	return total
}

// ComputeSeconds returns the modelled in-memory compute time of the
// synthesized program (0 if the machine has no flop rate).
func (s *Synthesis) ComputeSeconds() float64 {
	if s.Model.Cfg.FlopRate <= 0 {
		return 0
	}
	return Flops(s.Model.Prog) / s.Model.Cfg.FlopRate
}

// Balance classifies the synthesized code against the machine: the ratio
// of disk I/O time to compute time, and the total-time lower bound if I/O
// were perfectly overlapped with computation (max of the two) versus the
// serial sum.
type Balance struct {
	IOSeconds      float64
	ComputeSeconds float64
	// Serial is I/O + compute; Overlapped is max(I/O, compute) — what
	// perfect prefetching/double-buffering could achieve at best.
	Serial     float64
	Overlapped float64
	// IOBound reports whether disk I/O dominates.
	IOBound bool
}

// Balance computes the I/O-vs-compute balance of the synthesis.
func (s *Synthesis) Balance() Balance {
	io := s.Predicted()
	comp := s.ComputeSeconds()
	b := Balance{
		IOSeconds:      io,
		ComputeSeconds: comp,
		Serial:         io + comp,
		Overlapped:     io,
		IOBound:        io >= comp,
	}
	if comp > io {
		b.Overlapped = comp
	}
	return b
}

func (b Balance) String() string {
	kind := "I/O-bound"
	if !b.IOBound {
		kind = "compute-bound"
	}
	return fmt.Sprintf("%s: I/O %.1f s, compute %.1f s; serial %.1f s, overlapped ≥ %.1f s",
		kind, b.IOSeconds, b.ComputeSeconds, b.Serial, b.Overlapped)
}
