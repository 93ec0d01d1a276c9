package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabelKeyCanonical(t *testing.T) {
	// Keys sort, values escape, and the rendering is the series identity.
	got := labelKey([]string{"op", "array"}, []string{"read", `A"1`})
	want := `array="A\"1",op="read"`
	if got != want {
		t.Fatalf("labelKey = %s, want %s", got, want)
	}
	if labelKey(nil, nil) != "" {
		t.Fatalf("empty labelKey = %q, want empty", labelKey(nil, nil))
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("exec.io.retries.by_array", "array")
	v.With("A").Add(3)
	v.With("B").Inc()
	v.With("A").Inc()

	if got := v.With("A").Value(); got != 4 {
		t.Fatalf("A = %d, want 4", got)
	}
	// Same name returns the same family.
	if r.CounterVec("exec.io.retries.by_array", "array") != v {
		t.Fatal("second CounterVec call returned a different family")
	}

	snap := r.Snapshot()
	if got := snap.Counters[`exec.io.retries.by_array{array="A"}`]; got != 4 {
		t.Fatalf("snapshot A = %d, want 4 (keys %v)", got, snap.Counters)
	}
	if got := snap.Counters[`exec.io.retries.by_array{array="B"}`]; got != 1 {
		t.Fatalf("snapshot B = %d, want 1", got)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("pool.depth", "worker")
	g.With("0").Set(5)
	g.With("0").Set(2)

	snap := r.Snapshot()
	gv := snap.Gauges[`pool.depth{worker="0"}`]
	if gv.Value != 2 || gv.Max != 5 {
		t.Fatalf("gauge value/max = %v/%v, want 2/5", gv.Value, gv.Max)
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("a.b", "x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestVecCardinalityCap pins the per-family child cap: children up to
// the cap, and lookups of existing ones past it, are fine; one more new
// label value panics naming the family, and both vec kinds share it.
func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	cv, gv := r.CounterVec("exec.io.retries.by_array", "array"), r.GaugeVec("ring.shard.health", "shard")
	for i := 0; i < maxVecChildren; i++ {
		cv.With(fmt.Sprint(i)).Inc()
		gv.With(fmt.Sprint(i)).Set(1)
	}
	cv.With("0").Inc()
	if got := cv.With("0").Value(); got != 2 {
		t.Fatalf("existing child = %d after the cap, want 2", got)
	}
	for name, with := range map[string]func(){
		"exec.io.retries.by_array": func() { cv.With("one-too-many") },
		"ring.shard.health":        func() { gv.With("one-too-many") },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, fmt.Sprint(maxVecChildren)) {
					t.Errorf("child %d of %s: panic %q, want one naming the family and the cap", maxVecChildren+1, name, msg)
				}
			}()
			with()
		}()
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				// Concurrent family creation, child creation, and use.
				r.CounterVec("c", "k").With(fmt.Sprint(j % 5)).Inc()
				r.GaugeVec("g", "k").With("shared").Set(float64(i))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	var total int64
	r.CounterVec("c", "k").core.each(func(_ string, c *Counter) { total += c.Value() })
	if total != 8*200 {
		t.Fatalf("counter total = %d, want %d", total, 8*200)
	}
}
