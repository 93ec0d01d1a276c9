// Package disk owns the I/O counters, so diskstats exempts it.
package disk

// Stats mirrors the real disk.Stats counters.
type Stats struct {
	ReadOps, WriteOps, BytesRead, BytesWritten int64
	ReadTime, WriteTime                        float64
}

// Array carries its own counters.
type Array struct{ Stats Stats }

// Charge is the implementation updating its own counters.
//
// ok: diskstats
func (a *Array) Charge(n int64) {
	a.Stats.ReadOps++
	a.Stats.BytesRead += n
	a.Stats.ReadTime = 0
}

// IntegrityError always arrives wrapped, so only errors.As finds it.
type IntegrityError struct{}

func (*IntegrityError) Error() string { return "disk: integrity" }

// Syncer is a capability a backend may have.
type Syncer interface{ Sync() error }

// Probe asserts a capability on a value that is not an error.
//
// ok: ioerr
func Probe(be interface{}) bool {
	_, ok := be.(Syncer)
	return ok
}
