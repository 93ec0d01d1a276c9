// Package obs mirrors the shape of the real telemetry layer: it is on
// the wall-clock allowlist, and it declares the labeled vector family
// whose With method the labelcard analyzer guards.
package obs

import "time"

// StampMs returns a wall-clock timestamp; obs is sanctioned to read
// real time, and calls into it do not taint callers.
func StampMs() int64 { return time.Now().UnixMilli() }

// CounterVec is a mini labeled counter family.
type CounterVec struct{}

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) *CounterVec { return v }

// Inc bumps the child.
func (v *CounterVec) Inc() {}

// Counter is a registry-owned instrument.
type Counter struct{}

// NewCounter is the registry constructor: obs builds its own instruments.
//
// ok: obsnew
func NewCounter() *Counter { return &Counter{} }
