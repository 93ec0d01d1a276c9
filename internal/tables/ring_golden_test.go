package tables

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestRingQuickGolden pins the quick gray-failure and ring studies to
// testdata/ring_quick.golden: FormatGrayStudy's table, every gray row's
// fields exactly, and every deterministic RingStudy field (modelled
// times per replication factor and both rebalance reports). Floats print
// in their shortest round-trip form, so a change to the ring's routing,
// health plane or accounting that moves any modelled figure, breaker
// transition or hedge tally by one bit fails here. Re-record with
// -update only for a change that says why the studies moved.
func TestRingQuickGolden(t *testing.T) {
	gray, err := GrayStudy(Size{140, 120}, capped())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RingStudy(Size{140, 120}, []int{8, 16, 32, 64}, capped())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatGrayStudy(gray))
	for _, r := range gray.Rows {
		fmt.Fprintf(&b, "gray %+v\n", r)
	}
	for _, r := range rs.Rows {
		fmt.Fprintf(&b, "ring P=%d mem=%d R1=%v R2=%v R3=%v\n",
			r.Procs, r.TotalMemory, r.Replica1Seconds, r.Replica2Seconds, r.Replica3Seconds)
		fmt.Fprintf(&b, "  add %+v\n  drain %+v\n", *r.Add, *r.Drain)
	}
	golden.Check(t, filepath.Join("testdata", "ring_quick.golden"), []byte(b.String()))
}
