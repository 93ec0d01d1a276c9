package exec

import (
	"fmt"
	"strings"

	"fixmod/internal/disk"
)

// classify compares errors and matches their text.
func classify(err error, sentinel error) bool {
	if err == sentinel {
		return true
	}
	if strings.Contains(err.Error(), "transient") {
		return true
	}
	return strings.HasPrefix(err.Error(), "disk: ")
}

// integrity asserts a wrapped error's type directly.
func integrity(err error) bool {
	_, ok := err.(*disk.IntegrityError)
	return ok
}

// isNil checks for nil, the idiom.
//
// ok: ioerr
func isNil(err error) bool { return err != nil || nil == err }

// show uses Error() for display and matches text that is not an error's.
//
// ok: ioerr
func show(err error, s string) string {
	if strings.Contains(s, "x") {
		return fmt.Sprintf("failed: %s", err.Error())
	}
	return err.Error()
}

// same compares values that are not errors.
//
// ok: ioerr
func same(a, b int) bool { return a == b }

// kind names the error once, in a type switch.
//
// ok: ioerr
func kind(err error) int {
	switch err.(type) {
	case nil:
		return 0
	default:
		return 1
	}
}
