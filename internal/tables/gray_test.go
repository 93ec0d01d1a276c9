package tables

import (
	"strings"
	"testing"
)

func TestGrayStudyShapeHolds(t *testing.T) {
	rep, err := GrayStudy(Size{140, 120}, capped())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	ff, raw, mit := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if ff.Scenario != "fault-free" || raw.Scenario != "brownout-unmitigated" || mit.Scenario != "brownout-mitigated" {
		t.Fatalf("scenario names: %q %q %q", ff.Scenario, raw.Scenario, mit.Scenario)
	}
	if rep.Brownout == "" || !strings.Contains(rep.Brownout, "latwindow=") {
		t.Fatalf("brownout schedule %q does not carry the window", rep.Brownout)
	}

	// Fault-free: no spikes, no tail, ratio exactly 1.
	if ff.LatencySpikes != 0 || ff.TailReadSeconds != 0 || ff.TailRatio != 1 {
		t.Fatalf("fault-free row is not clean: %+v", ff)
	}
	// All three scenarios share the plan, so the charged figure is the
	// same — the brownout never leaks into the front-door account.
	if raw.ChargedReadSeconds != ff.ChargedReadSeconds || mit.ChargedReadSeconds != ff.ChargedReadSeconds {
		t.Fatalf("charged read seconds differ across scenarios: %g / %g / %g",
			ff.ChargedReadSeconds, raw.ChargedReadSeconds, mit.ChargedReadSeconds)
	}

	// Unmitigated: the brownout hit, nothing fired, every spike landed in
	// the tail, and the experienced read left the acceptance envelope.
	if raw.LatencySpikes == 0 {
		t.Fatal("unmitigated run saw no spikes; the derived schedule is vacuous")
	}
	if raw.HedgesIssued != 0 || raw.BreakerOpens != 0 {
		t.Fatalf("mitigation fired despite disabled budgets: %+v", raw)
	}
	tail := raw.TailReadSeconds + raw.TailWriteSeconds
	if diff := tail - raw.SpikeSeconds; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("unmitigated tail %.3fs != inflicted %.3fs", tail, raw.SpikeSeconds)
	}
	if raw.TailRatio <= 1.25 {
		t.Fatalf("unmitigated ratio %.3f inside the envelope; scenario too mild", raw.TailRatio)
	}

	// Mitigated: breaker traversal, at least one hedge won, and the
	// experienced read back inside the envelope.
	if mit.TailRatio > 1.25 {
		t.Fatalf("mitigated ratio %.3f exceeds 1.25: %+v", mit.TailRatio, mit)
	}
	if mit.HedgesWon == 0 {
		t.Fatalf("mitigated run won no hedges: %+v", mit)
	}
	if mit.BreakerOpens == 0 || mit.BreakerHalfOpen == 0 || mit.BreakerCloses == 0 {
		t.Fatalf("mitigated run did not traverse the breaker: %+v", mit)
	}
	if mit.TailRatio >= raw.TailRatio {
		t.Fatalf("mitigation did not improve the tail: %.3f vs %.3f", mit.TailRatio, raw.TailRatio)
	}

	// The scheduled scrub pass covered every array in every scenario.
	for _, r := range rep.Rows {
		if r.ScrubArrays == 0 {
			t.Fatalf("scenario %q scrubbed nothing", r.Scenario)
		}
	}

	// The text table renders every scenario.
	text := FormatGrayStudy(rep)
	for _, r := range rep.Rows {
		if !strings.Contains(text, r.Scenario) {
			t.Fatalf("formatted table missing %q:\n%s", r.Scenario, text)
		}
	}
}
