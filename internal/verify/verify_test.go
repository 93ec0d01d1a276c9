package verify

import (
	"encoding/json"
	"testing"

	"repro/internal/codegen"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

// buildProblem assembles the pipeline up to the NLP for a test program.
func buildProblem(t testing.TB, prog *loops.Program, cfg machine.Config) *nlp.Problem {
	t.Helper()
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nlp.Build(m)
}

// forEachCombo runs fn on every combination of candidate selections.
func forEachCombo(t *testing.T, p *nlp.Problem, tiles map[string]int64, fn func(combo int, sel map[string]int, plan *codegen.Plan)) {
	t.Helper()
	nCombos := 1
	for ci := 0; ci < p.NumChoices(); ci++ {
		nCombos *= p.Choices[ci].M
	}
	for combo := 0; combo < nCombos; combo++ {
		sel := map[string]int{}
		rest := combo
		for ci := 0; ci < p.NumChoices(); ci++ {
			m := p.Choices[ci].M
			sel[p.Choices[ci].Name] = rest % m
			rest /= m
		}
		x := p.Encode(tiles, sel)
		plan, err := codegen.Generate(p, x)
		if err != nil {
			t.Fatalf("combo %d (%v): generate: %v", combo, sel, err)
		}
		fn(combo, sel, plan)
	}
}

// TestVerifyAllPlacementsTwoIndex checks the verifier against every
// reachable plan of the fused two-index transform: the full cross product
// of candidate placements, across dividing, non-dividing, and degenerate
// tile shapes, must verify clean.
func TestVerifyAllPlacementsTwoIndex(t *testing.T) {
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)

	tileSets := []map[string]int64{
		{"i": 8, "j": 8, "m": 6, "n": 6}, // full: single tile
		{"i": 4, "j": 4, "m": 3, "n": 3}, // dividing
		{"i": 3, "j": 5, "m": 4, "n": 5}, // non-dividing (partial tiles)
		{"i": 1, "j": 1, "m": 1, "n": 1}, // degenerate single elements
	}
	checked := 0
	for _, tiles := range tileSets {
		forEachCombo(t, p, tiles, func(combo int, sel map[string]int, plan *codegen.Plan) {
			rep := Check(plan)
			if !rep.OK() {
				t.Fatalf("tiles %v combo %d (%v):\n%s\nplan:\n%s", tiles, combo, sel, rep, plan)
			}
			if rep.Truncated {
				t.Fatalf("tiles %v combo %d: truncated schedule walk on a tiny plan", tiles, combo)
			}
			checked++
		})
	}
	if checked < 32 {
		t.Fatalf("expected a nontrivial verification space, verified only %d plans", checked)
	}
}

// TestVerifyAllPlacementsFourIndex checks the verifier over the full
// placement enumeration of the four-index transform (the paper's AO-to-MO
// workload shape): every enumerated candidate of every choice is verified
// (swept one at a time against the default selection — the full cross
// product exceeds 10^6 plans), plus a deterministic sample of mixed
// selections covering disk intermediates with read-modify-write
// accumulation.
func TestVerifyAllPlacementsFourIndex(t *testing.T) {
	prog := loops.FourIndexAbstract(6, 4)
	cfg := machine.Small(1 << 22)
	p := buildProblem(t, prog, cfg)

	tileSets := []map[string]int64{
		{"p": 3, "q": 2, "r": 3, "s": 2, "a": 2, "b": 2, "c": 3, "d": 2},
		{"p": 4, "q": 3, "r": 2, "s": 5, "a": 3, "b": 1, "c": 2, "d": 4}, // partial tiles
	}
	check := func(tiles map[string]int64, sel map[string]int) {
		t.Helper()
		x := p.Encode(tiles, sel)
		plan, err := codegen.Generate(p, x)
		if err != nil {
			t.Fatalf("sel %v: generate: %v", sel, err)
		}
		rep := Check(plan)
		if !rep.OK() {
			t.Fatalf("tiles %v sel %v:\n%s\nplan:\n%s", tiles, sel, rep, plan)
		}
	}
	checked := 0
	for _, tiles := range tileSets {
		// Full candidate coverage: every candidate of every choice.
		for ci := 0; ci < p.NumChoices(); ci++ {
			for cand := 0; cand < p.Choices[ci].M; cand++ {
				check(tiles, map[string]int{p.Choices[ci].Name: cand})
				checked++
			}
		}
		// Mixed selections: a deterministic linear-congruential sweep of
		// the cross product.
		state := uint64(12345)
		for i := 0; i < 200; i++ {
			sel := map[string]int{}
			for ci := 0; ci < p.NumChoices(); ci++ {
				state = state*6364136223846793005 + 1442695040888963407
				sel[p.Choices[ci].Name] = int(state>>33) % p.Choices[ci].M
			}
			check(tiles, sel)
			checked++
		}
	}
	t.Logf("verified %d four-index plans", checked)
	if checked < 100 {
		t.Fatal("enumeration collapsed")
	}
}

// planWith returns the first plan (over all combos) satisfying pred.
func planWith(t *testing.T, p *nlp.Problem, tiles map[string]int64, pred func(*codegen.Plan) bool) *codegen.Plan {
	t.Helper()
	var found *codegen.Plan
	forEachCombo(t, p, tiles, func(_ int, _ map[string]int, plan *codegen.Plan) {
		if found == nil && pred(plan) {
			found = plan
		}
	})
	if found == nil {
		t.Fatal("no plan matches the predicate")
	}
	return found
}

// hasBuffer reports whether the plan carries a buffer with this name.
func hasBuffer(plan *codegen.Plan, name string) bool {
	for _, b := range plan.Buffers {
		if b.Name == name {
			return true
		}
	}
	return false
}

// findIO locates an IO node (read/write of array) and its parent node
// list plus index.
func findIO(ns []codegen.Node, array string, read bool) (parent []codegen.Node, idx int) {
	for i, n := range ns {
		switch n := n.(type) {
		case *codegen.Loop:
			if p, j := findIO(n.Body, array, read); p != nil {
				return p, j
			}
		case *codegen.IO:
			if n.Array == array && n.Read == read {
				return ns, i
			}
		}
	}
	return nil, -1
}

func twoIndexDiskIntermediatePlan(t *testing.T) *codegen.Plan {
	t.Helper()
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 3, "j": 5, "m": 4, "n": 5}
	return planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		return hasBuffer(plan, "T.w") && hasBuffer(plan, "T.r")
	})
}

// sameSlice reports whether two node lists alias the same backing array.
func sameSlice(a, b []codegen.Node) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestVerifyRejectsIllegalPlacementDepth hoists a disk intermediate's read
// above the producer/consumer common loop nest and expects the LCA rule.
func TestVerifyRejectsIllegalPlacementDepth(t *testing.T) {
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 3, "j": 5, "m": 4, "n": 5}
	// A plan whose intermediate read sits strictly inside a loop, so
	// hoisting it to the top level leaves the common nest.
	plan := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		if !hasBuffer(plan, "T.w") || !hasBuffer(plan, "T.r") {
			return false
		}
		parent, _ := findIO(plan.Body, "T", true)
		return parent != nil && !sameSlice(parent, plan.Body)
	})
	if rep := Check(plan); !rep.OK() {
		t.Fatalf("baseline plan not clean:\n%s", rep)
	}
	parent, idx := findIO(plan.Body, "T", true)
	io := parent[idx]
	repl := append(append([]codegen.Node{}, parent[:idx]...), parent[idx+1:]...)
	if !swapBody(plan, parent, repl) {
		t.Fatal("could not detach the intermediate read")
	}
	plan.Body = append([]codegen.Node{io}, plan.Body...)

	rep := Check(plan)
	if !rep.Has("DF4") {
		t.Fatalf("expected DF4 after hoisting intermediate read to top level, got:\n%s", rep)
	}
}

// TestVerifyRejectsUndersizedBlock tightens the machine's minimum read
// block beyond the plan's read buffers and expects the block-size rule.
func TestVerifyRejectsUndersizedBlock(t *testing.T) {
	plan := twoIndexDiskIntermediatePlan(t)
	// Every array here is at most 6*8*8 = 384 bytes... actually ranges are
	// small; the clamp caps the requirement at each array's total size, so
	// pick a minimum far above every tile buffer but keep the buffers
	// smaller than the full arrays (tiles are partial).
	plan.Cfg.Disk.MinReadBlock = 1 << 20
	rep := Check(plan)
	if !rep.Has("R3") {
		t.Fatalf("expected R3 with a huge minimum read block, got:\n%s", rep)
	}
}

// TestVerifyRejectsHazardViolatingSchedule deletes the producing write of
// a disk intermediate, leaving its consumer read uncovered (RAW), and
// expects the schedule rule.
func TestVerifyRejectsHazardViolatingSchedule(t *testing.T) {
	plan := twoIndexDiskIntermediatePlan(t)
	parent, idx := findIO(plan.Body, "T", false)
	if parent == nil {
		t.Fatal("no write of intermediate T")
	}
	repl := append(append([]codegen.Node{}, parent[:idx]...), parent[idx+1:]...)
	if !swapBody(plan, parent, repl) {
		t.Fatal("could not remove the producing write")
	}
	rep := Check(plan)
	if !rep.Has("S2") {
		t.Fatalf("expected S2 after removing the producing write, got:\n%s", rep)
	}
}

// TestVerifyRejectsResourceViolations covers the remaining resource rules
// on targeted corruptions of a clean plan.
func TestVerifyRejectsResourceViolations(t *testing.T) {
	t.Run("R1 extents", func(t *testing.T) {
		plan := twoIndexDiskIntermediatePlan(t)
		plan.Buffers[0].MaxElems += 3
		if rep := Check(plan); !rep.Has("R1") {
			t.Fatalf("expected R1 after corrupting MaxElems, got:\n%s", rep)
		}
	})
	t.Run("R2 memory", func(t *testing.T) {
		plan := twoIndexDiskIntermediatePlan(t)
		plan.Cfg.MemoryLimit = 1
		if rep := Check(plan); !rep.Has("R2") {
			t.Fatalf("expected R2 with a 1-byte memory limit, got:\n%s", rep)
		}
	})
	t.Run("R4 tile", func(t *testing.T) {
		plan := twoIndexDiskIntermediatePlan(t)
		var corrupt func(ns []codegen.Node) bool
		corrupt = func(ns []codegen.Node) bool {
			for _, n := range ns {
				if l, ok := n.(*codegen.Loop); ok {
					l.Tile = l.Range + 1
					return true
				}
			}
			return false
		}
		if !corrupt(plan.Body) {
			t.Fatal("no loop to corrupt")
		}
		if rep := Check(plan); !rep.Has("R4") {
			t.Fatalf("expected R4 after corrupting a loop tile, got:\n%s", rep)
		}
	})
}

// TestVerifyRejectsInputWrite duplicates an input's read as a write and
// expects the inputs-are-read-only rule.
func TestVerifyRejectsInputWrite(t *testing.T) {
	plan := twoIndexDiskIntermediatePlan(t)
	parent, idx := findIO(plan.Body, "A", true)
	if parent == nil {
		t.Fatal("no read of input A")
	}
	rd := parent[idx].(*codegen.IO)
	wr := &codegen.IO{Read: false, Array: rd.Array, Buffer: rd.Buffer}
	grown := append(append([]codegen.Node{}, parent[:idx+1]...), wr)
	grown = append(grown, parent[idx+1:]...)
	if !swapBody(plan, parent, grown) {
		t.Fatal("could not graft the corrupting write")
	}
	rep := Check(plan)
	if !rep.Has("DF2") {
		t.Fatalf("expected DF2 after writing to an input, got:\n%s", rep)
	}
}

// swapBody replaces the node list aliasing old (top-level or loop body)
// with repl.
func swapBody(plan *codegen.Plan, old, repl []codegen.Node) bool {
	if len(plan.Body) == len(old) && len(old) > 0 && &plan.Body[0] == &old[0] {
		plan.Body = repl
		return true
	}
	var walk func(ns []codegen.Node) bool
	walk = func(ns []codegen.Node) bool {
		for _, n := range ns {
			if l, ok := n.(*codegen.Loop); ok {
				if len(l.Body) == len(old) && len(old) > 0 && &l.Body[0] == &old[0] {
					l.Body = repl
					return true
				}
				if walk(l.Body) {
					return true
				}
			}
		}
		return false
	}
	return walk(plan.Body)
}

// TestVerifyRejectsMissingReadBack removes a read-modify-write read-back
// and expects the WAW clobber rule (and the redundant-loop rule).
func TestVerifyRejectsMissingReadBack(t *testing.T) {
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 4, "j": 4, "m": 3, "n": 3}
	plan := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		for _, da := range plan.DiskArrays {
			if da.NeedsInit {
				return true
			}
		}
		return false
	})
	var rmwArray string
	for _, da := range plan.DiskArrays {
		if da.NeedsInit {
			rmwArray = da.Name
		}
	}
	parent, idx := findIO(plan.Body, rmwArray, true)
	if parent == nil {
		t.Fatalf("no read-back of %q", rmwArray)
	}
	repl := append(append([]codegen.Node{}, parent[:idx]...), parent[idx+1:]...)
	if !swapBody(plan, parent, repl) {
		t.Fatal("could not remove the read-back")
	}
	rep := Check(plan)
	if !rep.Has("S3") && !rep.Has("DF5") {
		t.Fatalf("expected S3/DF5 after removing the read-back, got:\n%s", rep)
	}
}

// TestVerifyRejectsCrossUnitState moves a top-level buffer definition into
// the first work unit, leaving a later unit consuming it, and expects the
// barrier-isolation rule.
func TestVerifyRejectsCrossUnitState(t *testing.T) {
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 4, "j": 4, "m": 3, "n": 3}
	// A plan shaped [... def(buf) ... loop ... write(buf)] at the top
	// level: the write placed above the outer loop, its buffer defined by
	// the matching top-level ZeroBuf or read.
	topWrite := func(plan *codegen.Plan) (wrAt, defAt, loopAt int) {
		wrAt, defAt, loopAt = -1, -1, -1
		for i, n := range plan.Body {
			if io, ok := n.(*codegen.IO); ok && !io.Read {
				wrAt = i
				for j := 0; j < i; j++ {
					switch m := plan.Body[j].(type) {
					case *codegen.ZeroBuf:
						if m.Buffer == io.Buffer {
							defAt = j
						}
					case *codegen.IO:
						if m.Read && m.Buffer == io.Buffer {
							defAt = j
						}
					case *codegen.Loop:
						loopAt = j
					}
				}
				if defAt >= 0 && loopAt > defAt {
					return wrAt, defAt, loopAt
				}
			}
		}
		return -1, -1, -1
	}
	plan := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		w, _, _ := topWrite(plan)
		return w >= 0
	})
	if rep := Check(plan); !rep.OK() {
		t.Fatalf("baseline plan not clean:\n%s", rep)
	}
	_, defAt, loopAt := topWrite(plan)
	def := plan.Body[defAt]
	l := plan.Body[loopAt].(*codegen.Loop)
	l.Body = append([]codegen.Node{def}, l.Body...)
	plan.Body = append(plan.Body[:defAt:defAt], plan.Body[defAt+1:]...)
	rep := Check(plan)
	if !rep.Has("S1") {
		t.Fatalf("expected S1 after sinking a top-level definition into a unit, got:\n%s", rep)
	}
}

// TestRulesTable sanity-checks the rule catalog: unique IDs, paper refs
// everywhere, and diagnostics resolve their refs.
func TestRulesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules {
		if r.ID == "" || r.Title == "" || r.PaperRef == "" {
			t.Fatalf("incomplete rule %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate rule ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	d := Diagnostic{Rule: "DF4", Array: "T", Pos: "a", Detail: "x"}
	if d.PaperRef() == "" {
		t.Fatal("diagnostic lost its paper reference")
	}
	if RuleByID("nope") != (Rule{}) {
		t.Fatal("unknown rule should resolve to the zero Rule")
	}
}

// TestBoxAlgebra pins the schedule walk's rectangle arithmetic.
func TestBoxAlgebra(t *testing.T) {
	a := boxOf([]int64{0, 0}, []int64{4, 4})
	b := boxOf([]int64{2, 2}, []int64{4, 4})
	ov, ok := intersect(a, b)
	if !ok || ov.lo[0] != 2 || ov.hi[0] != 4 {
		t.Fatalf("bad intersection %v %v", ov, ok)
	}
	if n := len(subtractBox(a, b)); n != 2 {
		t.Fatalf("expected 2 fragments from corner subtraction, got %d", n)
	}
	var r region
	r.add(boxOf([]int64{0, 0}, []int64{2, 4}), 100)
	if r.covers(boxOf([]int64{0, 0}, []int64{4, 4})) {
		t.Fatal("half-covered box reported covered")
	}
	r.add(boxOf([]int64{2, 0}, []int64{2, 4}), 100)
	if !r.covers(boxOf([]int64{0, 0}, []int64{4, 4})) {
		t.Fatal("union coverage missed")
	}
	if !r.covers(boxOf([]int64{1, 1}, []int64{2, 2})) {
		t.Fatal("interior box not covered by union")
	}
}

// TestVerifyResumeCheckpoints exercises S4: a resume checkpoint must name
// a boundary the engine's unit model can produce — valid ones verify
// clean, while out-of-range items/iterations, misaligned non-loop
// resumes, and resumes into non-checkpointable plans are all flagged.
func TestVerifyResumeCheckpoints(t *testing.T) {
	prog := loops.TwoIndexFused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 3, "j": 4, "m": 3, "n": 3}

	loopAt := -1
	plan := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		if !exec.Checkpointable(plan) {
			return false
		}
		for i, n := range plan.Body {
			if l, ok := n.(*codegen.Loop); ok && (l.Range+l.Tile-1)/l.Tile >= 2 {
				loopAt = i
				return true
			}
		}
		return false
	})
	l := plan.Body[loopAt].(*codegen.Loop)
	units := (l.Range + l.Tile - 1) / l.Tile

	at := func(cp exec.Checkpoint) *Report {
		return CheckOpts(plan, Options{Resume: &cp})
	}
	for _, cp := range []exec.Checkpoint{
		{Item: int64(loopAt), Iter: 0},
		{Item: int64(loopAt), Iter: units - 1},
		{Item: int64(len(plan.Body)), Iter: 0}, // fully completed plan
	} {
		if rep := at(cp); !rep.OK() {
			t.Fatalf("valid checkpoint %+v rejected:\n%s", cp, rep)
		}
	}
	for _, cp := range []exec.Checkpoint{
		{Item: int64(loopAt), Iter: units},         // past the loop's last unit
		{Item: int64(len(plan.Body)) + 1, Iter: 0}, // past the plan
		{Item: int64(len(plan.Body)), Iter: 1},     // completed plan, nonzero iter
		{Item: -1, Iter: 0},                        // negative coordinates
	} {
		rep := at(cp)
		if !rep.Has("S4") {
			t.Fatalf("checkpoint %+v not flagged:\n%s", cp, rep)
		}
	}
	// A non-loop top-level item (if the plan has one) only checkpoints at
	// iter 0.
	for i, n := range plan.Body {
		if _, ok := n.(*codegen.Loop); ok {
			continue
		}
		if rep := at(exec.Checkpoint{Item: int64(i), Iter: 1}); !rep.Has("S4") {
			t.Fatalf("non-loop item %d with iter 1 not flagged:\n%s", i, rep)
		}
		break
	}

	// Any resume into a non-checkpointable plan is illegal.
	bad := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		return !exec.Checkpointable(plan)
	})
	rep := CheckOpts(bad, Options{Resume: &exec.Checkpoint{}})
	if !rep.Has("S4") {
		t.Fatalf("resume into non-checkpointable plan not flagged:\n%s", rep)
	}
}

// TestVerifyProducerOrdering exercises S5: every disk intermediate (or
// output) read at the top level needs a producer unit at or before its
// first reader — the property integrity recovery leans on when it rolls
// a rotten array back to its producer. A consumer hoisted above its
// producer, and a consumer whose producer was deleted outright, are both
// flagged.
func TestVerifyProducerOrdering(t *testing.T) {
	// The unfused program keeps T's producer and consumer in separate
	// top-level units (the fused variant folds them into one, where S5 is
	// trivially satisfied).
	prog := loops.TwoIndexUnfused(6, 8)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	tiles := map[string]int64{"i": 3, "j": 5, "m": 4, "n": 5}
	unitIO := codegen.UnitIO
	plan := planWith(t, p, tiles, func(plan *codegen.Plan) bool {
		prodAt, readAt := -1, -1
		for i, n := range plan.Body {
			reads, writes := unitIO(n)
			if writes["T"] && prodAt == -1 {
				prodAt = i
			}
			if reads["T"] && !writes["T"] && readAt == -1 {
				readAt = i
			}
		}
		return prodAt != -1 && readAt != -1 && prodAt < readAt
	})
	if rep := Check(plan); !rep.OK() {
		t.Fatalf("base plan does not verify:\n%s", rep)
	}
	readAt := -1
	for i, n := range plan.Body {
		if reads, writes := unitIO(n); reads["T"] && !writes["T"] {
			readAt = i
			break
		}
	}

	// Hoist the consumer above every unit that writes T.
	hoisted := *plan
	hoisted.Body = append([]codegen.Node{plan.Body[readAt]}, plan.Body[:readAt]...)
	hoisted.Body = append(hoisted.Body, plan.Body[readAt+1:]...)
	if rep := Check(&hoisted); !rep.Has("S5") {
		t.Fatalf("consumer before producer not flagged:\n%s", rep)
	}

	// Delete the producer outright: T is read but never written.
	orphan := *plan
	orphan.Body = nil
	for _, n := range plan.Body {
		if _, writes := unitIO(n); writes["T"] {
			continue
		}
		orphan.Body = append(orphan.Body, n)
	}
	rep := Check(&orphan)
	if !rep.Has("S5") {
		t.Fatalf("orphaned consumer not flagged:\n%s", rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Rule == "S5" && d.Array == "T" {
			found = true
		}
	}
	if !found {
		t.Fatalf("S5 diagnostic does not name the orphaned array:\n%s", rep)
	}
}

// TestVerifyRejectsMismatchedIOBuffer corrupts the buffer a disk
// intermediate is read into, so the read no longer moves a box of its disk
// array, and expects DF1 (and no schedule findings from the malformed
// read). The first case is a saved plan with the read buffer's last
// dimension deleted from its JSON.
func TestVerifyRejectsMismatchedIOBuffer(t *testing.T) {
	readBuf := func(plan *codegen.Plan) *codegen.Buffer {
		parent, idx := findIO(plan.Body, "T", true)
		if parent == nil {
			t.Fatal("no read of intermediate T")
		}
		return parent[idx].(*codegen.IO).Buffer
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, plan *codegen.Plan) *codegen.Plan
	}{
		{"rank", func(t *testing.T, plan *codegen.Plan) *codegen.Plan {
			raw, err := json.Marshal(plan)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			name := readBuf(plan).Name
			for _, b := range doc["buffers"].([]any) {
				b := b.(map[string]any)
				if b["name"] == name {
					dims, classes := b["dims"].([]any), b["classes"].([]any)
					b["dims"], b["classes"] = dims[:len(dims)-1], classes[:len(classes)-1]
				}
			}
			if raw, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
			back, err := codegen.UnmarshalPlan(raw)
			if err != nil {
				t.Fatal(err)
			}
			return back
		}},
		{"array", func(t *testing.T, plan *codegen.Plan) *codegen.Plan {
			readBuf(plan).Array = "A"
			return plan
		}},
		{"index", func(t *testing.T, plan *codegen.Plan) *codegen.Plan {
			dims := readBuf(plan).Dims
			dims[0], dims[len(dims)-1] = dims[len(dims)-1], dims[0]
			return plan
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := twoIndexDiskIntermediatePlan(t)
			if rep := Check(plan); !rep.OK() {
				t.Fatalf("baseline plan not clean:\n%s", rep)
			}
			rep := Check(tc.corrupt(t, plan))
			found := false
			for _, d := range rep.Diags {
				found = found || d.Rule == "DF1" && d.Array == "T"
			}
			if !found || rep.Has("S2") || rep.Has("S3") {
				t.Fatalf("expected DF1 on T and no schedule findings, got:\n%s", rep)
			}
		})
	}
}
