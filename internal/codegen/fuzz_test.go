package codegen_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/codegen"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
	"repro/internal/verify"
)

// FuzzUnmarshalPlan feeds arbitrary saved-plan JSON to UnmarshalPlan:
// decoding never panics, a plan it accepts verifies without panicking,
// and marshalling an accepted plan is a fixpoint of unmarshal∘marshal.
func FuzzUnmarshalPlan(f *testing.F) {
	for _, seed := range []struct {
		prog  *loops.Program
		cfg   machine.Config
		tiles map[string]int64
	}{
		{loops.TwoIndexFused(6, 8), machine.Small(1 << 20), map[string]int64{"i": 3, "j": 5, "m": 4, "n": 5}},
		{loops.FourIndexAbstract(6, 4), machine.Small(1 << 22), map[string]int64{"p": 3, "q": 2, "r": 3, "s": 2, "a": 2, "b": 2, "c": 3, "d": 2}},
	} {
		tree, err := tiling.Tile(seed.prog)
		if err != nil {
			f.Fatal(err)
		}
		m, err := placement.Enumerate(tree, seed.cfg, placement.Options{})
		if err != nil {
			f.Fatal(err)
		}
		p := nlp.Build(m)
		// The default selection and, per choice, its last candidate (a
		// disk intermediate for the two-index transform).
		sels := []map[string]int{{}}
		for ci := 0; ci < p.NumChoices(); ci++ {
			sels = append(sels, map[string]int{p.Choices[ci].Name: p.Choices[ci].M - 1})
		}
		for _, sel := range sels {
			plan, err := codegen.Generate(p, p.Encode(seed.tiles, sel))
			if err != nil {
				f.Fatal(err)
			}
			raw, err := json.Marshal(plan)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Add([]byte(`{"arrays":[{"name":"A","orig_indices":["i"]}],"ranges":{"i":4}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := codegen.UnmarshalPlan(data)
		if err != nil {
			return
		}
		verify.Check(plan)
		once, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		back, err := codegen.UnmarshalPlan(once)
		if err != nil {
			t.Fatalf("marshalled plan does not unmarshal: %v\n%s", err, once)
		}
		twice, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-read plan does not marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal is not a fixpoint:\n%s\n---\n%s", once, twice)
		}
	})
}
