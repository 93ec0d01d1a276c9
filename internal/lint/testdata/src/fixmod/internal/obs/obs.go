// Package obs mirrors the shape of the real telemetry layer: it is on
// the wall-clock allowlist, and it owns the registry instruments.
package obs

import "time"

// StampMs returns a wall-clock timestamp; obs is sanctioned to read
// real time, and calls into it do not taint callers.
func StampMs() int64 { return time.Now().UnixMilli() }

// Counter is a registry-owned instrument.
type Counter struct{}

// NewCounter is the registry constructor: obs builds its own instruments.
//
// ok: obsnew
func NewCounter() *Counter { return &Counter{} }
