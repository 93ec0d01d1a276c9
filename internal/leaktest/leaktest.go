// Package leaktest checks, at run time, that the goroutines an
// operation starts are gone once it returns or is shut down.
package leaktest

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"
)

// wait bounds how long a check polls for goroutines to exit.
var wait = 5 * time.Second

// Check records which goroutines are running and returns a function that
// fails tb unless none started since is still running — the goroutine
// count back at its starting value, with goroutines told apart by ID, so
// one of an earlier test still on its way out can neither hide a leak nor
// be taken for one. The returned function polls until a deadline, so
// goroutines already exiting (past a WaitGroup's Done, or a closed done
// channel) pass; on failure it prints the stacks of those left.
func Check(tb testing.TB) func() {
	tb.Helper()
	before := goroutines()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(wait)
		for {
			var left [][]byte
			for id, stack := range goroutines() {
				if before[id] == nil {
					left = append(left, stack)
				}
			}
			if len(left) == 0 {
				return
			}
			if time.Now().After(deadline) {
				slices.SortFunc(left, bytes.Compare)
				tb.Errorf("%d goroutines started during the check still running after %v:\n\n%s", len(left), wait, bytes.Join(left, []byte("\n\n")))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// goroutines returns the stack of every goroutine but the caller's, by
// goroutine ID.
func goroutines() map[string][]byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own stack comes first.
	stacks := bytes.Split(buf, []byte("\n\n"))[1:]
	out := make(map[string][]byte, len(stacks))
	for _, s := range stacks {
		id, _, _ := bytes.Cut(bytes.TrimPrefix(s, []byte("goroutine ")), []byte(" "))
		out[string(id)] = s
	}
	return out
}
