package exec

import "fixmod/internal/disk"

// bump mutates a backend's counters from outside internal/disk.
func bump(a *disk.Array) {
	a.Stats.ReadOps++
	a.Stats.BytesRead += 4096
	a.Stats.WriteTime = 0
}

// readStats only reads the counters; := defines a new variable.
//
// ok: diskstats
func readStats(a *disk.Array) int64 {
	n := a.Stats.BytesRead
	return n
}
