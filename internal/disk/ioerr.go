package disk

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
)

// IOError is the typed error returned by section-level disk I/O. It
// carries enough context to attribute a fault (array, section, op) and
// classifies the failure as transient (worth retrying) or persistent.
//
// IOError is errors.Is/As compatible: backends wrap the underlying
// cause (an OS error, a validation error, or an injected fault), so
// callers can use errors.As to recover the *IOError and errors.Is to
// test for a specific cause. Never compare disk errors with == or by
// matching message text; the lint "ioerr" analyzer flags both.
type IOError struct {
	Op        string  // "read" or "write"
	Array     string  // array name
	Lo        []int64 // section origin (copied; safe to retain)
	Shape     []int64 // section shape (copied; safe to retain)
	Retryable bool    // true if the fault is transient
	Err       error   // underlying cause
}

// NewIOError builds an *IOError, copying lo and shape so the error
// remains valid even when the caller reuses its index slices (the
// executor mutates its walk slices in place).
func NewIOError(op, array string, lo, shape []int64, retryable bool, err error) *IOError {
	return &IOError{
		Op:        op,
		Array:     array,
		Lo:        append([]int64(nil), lo...),
		Shape:     append([]int64(nil), shape...),
		Retryable: retryable,
		Err:       err,
	}
}

// Transient reports whether the fault is classified as transient, i.e.
// a retry of the same operation may succeed.
func (e *IOError) Transient() bool { return e.Retryable }

// Error formats the failure with op, array, section and classification.
func (e *IOError) Error() string {
	kind := "persistent"
	if e.Retryable {
		kind = "transient"
	}
	inner := ""
	if e.Err != nil {
		// The cause frequently carries its own "disk: " prefix;
		// strip it for display so the message reads cleanly. The
		// wrapped error is preserved verbatim for errors.Is.
		inner = ": " + strings.TrimPrefix(e.Err.Error(), "disk: ")
	}
	if len(e.Lo) == 0 && len(e.Shape) == 0 {
		return fmt.Sprintf("disk: %s %q (%s)%s", e.Op, e.Array, kind, inner)
	}
	return fmt.Sprintf("disk: %s %q section lo=%v shape=%v (%s)%s",
		e.Op, e.Array, e.Lo, e.Shape, kind, inner)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

// IsTransient reports whether err wraps a transient *IOError. A nil
// error and errors outside the taxonomy are not transient.
func IsTransient(err error) bool {
	var ioe *IOError
	return errors.As(err, &ioe) && ioe.Retryable
}

// transientOS classifies raw operating-system errors: interrupted or
// would-block conditions are worth retrying, anything else (ENOSPC,
// EBADF, corrupt file, ...) is treated as persistent.
func transientOS(err error) bool {
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ETIMEDOUT) ||
		errors.Is(err, syscall.EBUSY)
}

// wrapIO wraps err in an *IOError unless it already is one (injected
// faults arrive pre-classified) or is nil.
func wrapIO(op, array string, lo, shape []int64, retryable bool, err error) error {
	if err == nil {
		return nil
	}
	var ioe *IOError
	if errors.As(err, &ioe) {
		return err
	}
	return NewIOError(op, array, lo, shape, retryable, err)
}
