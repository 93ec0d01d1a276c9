package leaktest

import (
	"strings"
	"testing"
	"time"
)

// recorder captures Errorf instead of failing the test.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msg = strings.Split(format, ":")[0]
}

// TestCheckSeesAParkedGoroutine pins both outcomes: a goroutine that has
// returned by the time the check runs passes it, and one still parked on
// a channel fails it.
func TestCheckSeesAParkedGoroutine(t *testing.T) {
	r := &recorder{TB: t}
	done := Check(r)
	exited := make(chan struct{})
	go func() { close(exited) }()
	<-exited
	done()
	if r.msg != "" {
		t.Fatalf("exited goroutine reported: %s", r.msg)
	}

	defer func(w time.Duration) { wait = w }(wait)
	wait = 20 * time.Millisecond
	done = Check(r)
	release := make(chan struct{})
	go func() { <-release }()
	done()
	close(release)
	if r.msg == "" {
		t.Fatal("parked goroutine not reported")
	}
}
