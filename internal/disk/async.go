package disk

// This file is bench-only: the rest of the asynchronous section contract,
// which nothing under internal/ uses (the pipelined engine's issuers call
// the synchronous Array methods) but bench/timed.go still forwards. Every
// operation finishes before its handle is returned.

// Completion is the handle of one section operation.
type Completion interface{ Await() error }

// AsyncArray is an Array whose sections can also be moved through
// completion handles.
type AsyncArray interface {
	Array
	ReadAsync(lo, shape []int64, buf []float64) Completion
	WriteAsync(lo, shape []int64, buf []float64) Completion
}

// AsyncBackend marks a backend whose arrays implement AsyncArray.
type AsyncBackend interface {
	Backend
	AsyncCapable() bool
}

// AsAsync returns the array itself when it implements AsyncArray,
// otherwise a view giving it the AsyncArray methods.
func AsAsync(a Array) AsyncArray {
	if aa, ok := a.(AsyncArray); ok {
		return aa
	}
	return syncArray{a}
}

// IsAsync reports whether the array implements AsyncArray itself.
func IsAsync(a Array) bool {
	_, ok := a.(AsyncArray)
	return ok
}

// done is the handle of a finished operation; syncArray gives any Array
// the AsyncArray methods.
type done struct{ err error }
type syncArray struct{ Array }

func (d done) Await() error { return d.err }
func (a syncArray) ReadAsync(lo, sh []int64, b []float64) Completion {
	return done{a.ReadSection(lo, sh, b)}
}
func (a syncArray) WriteAsync(lo, sh []int64, b []float64) Completion {
	return done{a.WriteSection(lo, sh, b)}
}
func (a *simArray) ReadAsync(lo, sh []int64, b []float64) Completion {
	return done{a.ReadSection(lo, sh, b)}
}
func (a *simArray) WriteAsync(lo, sh []int64, b []float64) Completion {
	return done{a.WriteSection(lo, sh, b)}
}

// AsyncCapable reports true: Sim arrays implement AsyncArray.
func (s *Sim) AsyncCapable() bool { return true }
