package disk

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"syscall"
	"testing"
)

func TestIOErrorCopiesSection(t *testing.T) {
	lo := []int64{1, 2}
	shape := []int64{3, 4}
	e := NewIOError("read", "A", lo, shape, true, errors.New("boom"))
	lo[0], shape[0] = 99, 99
	if e.Lo[0] != 1 || e.Shape[0] != 3 {
		t.Fatalf("IOError retained caller slices: lo=%v shape=%v", e.Lo, e.Shape)
	}
}

func TestIOErrorClassificationAndUnwrap(t *testing.T) {
	cause := errors.New("underlying")
	e := NewIOError("write", "B", []int64{0}, []int64{8}, true, cause)
	if !e.Transient() || !IsTransient(e) {
		t.Fatal("transient error not classified as transient")
	}
	if !errors.Is(e, cause) {
		t.Fatal("errors.Is does not reach the cause")
	}
	wrapped := fmt.Errorf("exec: write %q: %w", "B", e)
	var ioe *IOError
	if !errors.As(wrapped, &ioe) || ioe.Array != "B" {
		t.Fatalf("errors.As failed through wrapping: %v", wrapped)
	}
	if !IsTransient(wrapped) {
		t.Fatal("IsTransient failed through wrapping")
	}
	p := NewIOError("read", "C", nil, nil, false, nil)
	if p.Transient() || IsTransient(p) {
		t.Fatal("persistent error classified as transient")
	}
	if IsTransient(nil) || IsTransient(errors.New("plain")) {
		t.Fatal("IsTransient true outside the taxonomy")
	}
}

func TestIOErrorMessage(t *testing.T) {
	e := NewIOError("read", "A", []int64{0, 8}, []int64{4, 4}, true,
		fmt.Errorf("disk: inner detail"))
	msg := e.Error()
	for _, want := range []string{"read", `"A"`, "lo=[0 8]", "shape=[4 4]", "transient", "inner detail"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
	if strings.Count(msg, "disk: ") != 1 {
		t.Fatalf("message %q should carry exactly one disk: prefix", msg)
	}
}

func TestBackendsReturnTypedSectionErrors(t *testing.T) {
	sim := NewSim(testDisk(), true)
	if _, err := sim.Create("A", []int64{4, 4}); err != nil {
		t.Fatal(err)
	}
	a, err := sim.Open("A")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Create("A", []int64{4, 4}); err != nil {
		t.Fatal(err)
	}
	fa, err := fs.Open("A")
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range []Array{a, fa} {
		var ioe *IOError
		// Out-of-bounds section.
		err := arr.ReadSection([]int64{3, 3}, []int64{2, 2}, make([]float64, 4))
		if !errors.As(err, &ioe) {
			t.Fatalf("out-of-bounds read not an *IOError: %v", err)
		}
		if ioe.Op != "read" || ioe.Array != "A" || ioe.Transient() {
			t.Fatalf("bad attribution: %+v", ioe)
		}
		// Mismatched buffer.
		err = arr.WriteSection([]int64{0, 0}, []int64{2, 2}, make([]float64, 3))
		if !errors.As(err, &ioe) || ioe.Op != "write" {
			t.Fatalf("short-buffer write not a typed write error: %v", err)
		}
	}
}

func TestTransientOSClassifier(t *testing.T) {
	if !transientOS(fmt.Errorf("op: %w", syscall.EINTR)) {
		t.Fatal("EINTR should be transient")
	}
	if transientOS(syscall.ENOSPC) || transientOS(errors.New("x")) {
		t.Fatal("non-retryable OS errors classified transient")
	}
}

func TestRetryPolicyDelays(t *testing.T) {
	var p *RetryPolicy
	if p.Attempts() != 1 || p.Delay(0, 1) != 0 {
		t.Fatal("nil policy should mean a single attempt with no delay")
	}
	p = &RetryPolicy{MaxAttempts: 5, BaseDelay: 1e-3, MaxDelay: 3e-3, Seed: 7}
	for i := 0; i < 8; i++ {
		d := p.Delay(i, 42)
		if d <= 0 || d > p.MaxDelay+1e-12 {
			t.Fatalf("attempt %d delay %g outside (0,%g]", i, d, p.MaxDelay)
		}
		if d != p.Delay(i, 42) {
			t.Fatal("delay not deterministic")
		}
	}
	if math.Abs(p.Delay(1, 1)-2e-3) > 1e-12 {
		t.Fatalf("no-jitter doubling broken: %g", p.Delay(1, 1))
	}
	p.Jitter = 0.5
	d0, d1 := p.Delay(2, 1), p.Delay(2, 2)
	if d0 == d1 {
		t.Fatal("jitter should vary with the operation key")
	}
	for _, d := range []float64{d0, d1} {
		if d < 3e-3*0.5-1e-12 || d > 3e-3+1e-12 {
			t.Fatalf("jittered delay %g outside [d/2, d]", d)
		}
	}
}
