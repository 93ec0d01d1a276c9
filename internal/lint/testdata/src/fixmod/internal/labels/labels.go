package labels

import (
	"fmt"

	"fixmod/internal/obs"
)

const arrayA = "a"

// RecordBad mints unbounded label values: an error message and a
// Sprintf both make the registry grow without limit.
func RecordBad(v *obs.CounterVec, err error, n int) {
	v.With(err.Error()).Inc()
	v.With(fmt.Sprintf("shard-%d", n)).Inc()
}

// RecordGood uses bounded values: a constant and a caller-threaded
// parameter.
//
// ok: labelcard
func RecordGood(v *obs.CounterVec, array string) {
	v.With(arrayA).Inc()
	v.With(array).Inc()
}
