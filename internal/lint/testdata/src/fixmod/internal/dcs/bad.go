package dcs

import (
	"math/rand"
	"time"

	"fixmod/internal/clock"
	"fixmod/internal/obs"
)

// Step is deterministic territory: every wall-clock read and every
// implicitly seeded RNG below is a finding.
func Step() float64 {
	start := time.Now()
	elapsed := clock.WallNow()
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	n := rand.Intn(10)
	_ = start
	return r.Float64() + float64(elapsed) + float64(n)
}

// Stamp may ask the telemetry layer for a timestamp: obs is on the
// wall-clock allowlist.
//
// ok: walltime
func Stamp() int64 { return obs.StampMs() }

// Paced carries a justified suppression.
//
// ok: walltime
func Paced() {
	//lint:ignore walltime fixture: justified exception
	time.Sleep(time.Millisecond)
}
