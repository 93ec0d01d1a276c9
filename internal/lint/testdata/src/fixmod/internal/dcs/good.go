package dcs

import "math/rand"

// NewRNG builds the lane RNG from an explicitly threaded seed — the
// sanctioned pattern.
//
// ok: rngseed
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
