package workers

import (
	"context"
	"sync"
)

// SpinBad leaks: the goroutine has no shutdown path at all.
func SpinBad(work func()) {
	go func() {
		for {
			work()
		}
	}()
}

// SpinCtx stops when the context does.
//
// ok: goleak
func SpinCtx(ctx context.Context, work func()) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				work()
			}
		}
	}()
}

// Fan runs n workers under a waited WaitGroup.
//
// ok: goleak
func Fan(n int, work func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Drain consumes jobs until the channel closes.
//
// ok: goleak
func Drain(jobs chan func()) {
	go func() {
		for job := range jobs {
			job()
		}
	}()
}

// Notify signals completion by closing done, which Await receives.
//
// ok: goleak
func Notify(done chan struct{}, work func()) {
	go func() {
		work()
		close(done)
	}()
}

// Await blocks until done closes.
func Await(done chan struct{}) { <-done }

// Serve shows the one-level same-package resolution: the go statement
// targets a named function whose body selects on the quit channel.
//
// ok: goleak
func Serve(quit chan struct{}, work func()) {
	go loop(quit, work)
}

func loop(quit chan struct{}, work func()) {
	for {
		select {
		case <-quit:
			return
		default:
			work()
		}
	}
}
