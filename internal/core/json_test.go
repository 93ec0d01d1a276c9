package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONExportRoundTrips(t *testing.T) {
	s, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SynthesisJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, raw)
	}
	if back.Strategy != "DCS" {
		t.Fatalf("strategy = %q", back.Strategy)
	}
	if back.PredictedSeconds != s.Predicted() {
		t.Fatalf("predicted = %g, want %g", back.PredictedSeconds, s.Predicted())
	}
	if back.MemoryBytes != s.Plan.MemoryBytes() {
		t.Fatal("memory mismatch")
	}
	if len(back.Tiles) != 4 {
		t.Fatalf("tiles = %v", back.Tiles)
	}
	if len(back.Placements) != 5 {
		t.Fatalf("placements = %v", back.Placements)
	}
	if len(back.DiskArrays) != 4 {
		t.Fatalf("disk arrays = %v", back.DiskArrays)
	}
	// Deterministic array order (sorted by name).
	for i := 1; i < len(back.DiskArrays); i++ {
		if back.DiskArrays[i].Name < back.DiskArrays[i-1].Name {
			t.Fatal("disk arrays not sorted")
		}
	}
	if !strings.Contains(back.ConcreteCode, "Read ADisk") {
		t.Fatal("concrete code missing")
	}
	// B must be flagged as needing zero-init (read-modify-write output).
	for _, da := range back.DiskArrays {
		if da.Name == "B" && !da.NeedsInit {
			t.Fatal("B should need zero-init")
		}
		if da.Name == "A" && da.Kind != "input" {
			t.Fatalf("A kind = %q", da.Kind)
		}
	}
}
