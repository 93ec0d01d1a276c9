// Package disk mirrors the real error taxonomy that ioerr guards.
package disk

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
