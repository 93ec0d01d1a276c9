package verify

import (
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
)

// fourIndexLabels pins every choice of the four-index transform to the
// selection of the paper-scale dry-run plan: T1 goes to disk and is read
// back under the redundant loops, B accumulates on disk, T2 and T3 stay in
// memory.
var fourIndexLabels = map[string]string{
	"A": "read leaf", "B": "write above sT",
	"C1": "read above aT", "C2": "read above aT", "C3": "read above aT", "C4": "read above aT",
	"T1": "disk: write above sT, read above sT (read required)", "T2": "in memory", "T3": "in memory",
}

// pinnedFourIndexPlan builds the four-index plan with the given tiles and
// fourIndexLabels, without the solver.
func pinnedFourIndexPlan(tb testing.TB, n, v int64, cfg machine.Config, tiles map[string]int64) *codegen.Plan {
	tb.Helper()
	p := buildProblem(tb, loops.FourIndexAbstract(n, v), cfg)
	want := nlp.Assignment{Tiles: tiles, Selected: map[string]*placement.Candidate{}}
	for name, label := range fourIndexLabels {
		want.Selected[name] = &placement.Candidate{Label: label}
	}
	x, matched := p.EncodeAssignment(want)
	if matched != len(fourIndexLabels) {
		tb.Fatalf("matched %d of %d pinned choices", matched, len(fourIndexLabels))
	}
	plan, err := codegen.Generate(p, x)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// stackPlan is the 190×180 four-index plan at a quarter gigabyte with the
// tiles of a DLM solution: 13 594 section operations, 52 907 schedule
// steps. The same plan is the paper-scale dry-run benchmark workload.
func stackPlan(tb testing.TB) *codegen.Plan {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = machine.GB / 4
	return pinnedFourIndexPlan(tb, 190, 180, cfg, map[string]int64{
		"a": 20, "b": 36, "c": 60, "d": 15, "p": 190, "q": 38, "r": 5, "s": 95,
	})
}

// smallFourIndexPlan is a four-index (24,24) plan at 2 MiB.
func smallFourIndexPlan(tb testing.TB) *codegen.Plan {
	return pinnedFourIndexPlan(tb, 24, 24, machine.Small(2<<20), map[string]int64{
		"a": 6, "b": 8, "c": 12, "d": 8, "p": 24, "q": 8, "r": 4, "s": 12,
	})
}

// BenchmarkCheck measures a full Check (dataflow, resource and the
// schedule walk) of a paper-scale and a small four-index plan.
func BenchmarkCheck(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(testing.TB) *codegen.Plan
	}{
		{"190x180@0.25GB", stackPlan},
		{"24x24@2MiB", smallFourIndexPlan},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan := bc.build(b)
			if rep := Check(plan); !rep.OK() || rep.Truncated {
				b.Fatalf("plan does not verify clean:\n%s", rep)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep = Check(plan)
			}
			b.ReportMetric(float64(rep.Steps), "steps")
		})
	}
}

// ioEvents counts the I/O and init events of a plan's flattened schedule.
func ioEvents(ns []codegen.Node) int64 {
	var n int64
	for _, nd := range ns {
		switch nd := nd.(type) {
		case *codegen.Loop:
			n += (nd.Range + nd.Tile - 1) / nd.Tile * ioEvents(nd.Body)
		case *codegen.IO, *codegen.InitPass:
			n++
		}
	}
	return n
}

// TestScheduleWalkLinearInEvents pins the schedule walk's cost per event
// with allocation counts: at two tilings of the 190×180 four-index plan
// whose I/O event counts differ at least fourfold, a Check must allocate
// about as much per event. (Smaller plans would measure the checker's
// fixed allocations instead.) A walk that compares each event with every earlier one of
// its array allocates in proportion to the events so far.
func TestScheduleWalkLinearInEvents(t *testing.T) {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 2 * machine.GB
	coarse := pinnedFourIndexPlan(t, 190, 180, cfg, map[string]int64{
		"a": 90, "b": 60, "c": 60, "d": 15, "p": 190, "q": 38, "r": 5, "s": 95,
	})
	fine := stackPlan(t)
	perEvent := func(plan *codegen.Plan) (float64, int64) {
		if rep := Check(plan); !rep.OK() || rep.Truncated {
			t.Fatalf("plan does not verify clean:\n%s", rep)
		}
		n := ioEvents(plan.Body)
		return testing.AllocsPerRun(3, func() { Check(plan) }) / float64(n), n
	}
	c, nc := perEvent(coarse)
	f, nf := perEvent(fine)
	t.Logf("%d events: %.3f allocs/event; %d events: %.3f allocs/event", nc, c, nf, f)
	if nf < 4*nc {
		t.Fatalf("tilings give %d and %d events, less than 4× apart", nc, nf)
	}
	if max(c, f) > 1.5*min(c, f) {
		t.Fatalf("allocations per event move from %.3f to %.3f (> 1.5×) between %d and %d events", c, f, nc, nf)
	}
}

// TestScheduleKeepsEventBoxes runs a hand-built schedule over a 1-D disk
// array T of 6 elements (tile 2) in which a whole-array write is recorded
// after the tile writes have covered T in three fragments. Subtracting the
// coverage from a box must leave the box itself as it is: if the stored
// whole-array write shrank to the first fragment it met, [0:2], the later
// writes of tiles [2:4] and [4:6] — whose only read-backs into their
// buffer happened before the whole-array write — would escape S3, and the
// whole-array read before that write would shrink too, inventing an S3 on
// the write it reads back for. Both walks must report exactly the two
// clobbers. (The plan breaks rules outside the schedule walk; only S2 and
// S3 are checked.)
func TestScheduleKeepsEventBoxes(t *testing.T) {
	prog := loops.NewProgram("clobber", map[string]int64{"i": 6})
	prog.DeclareArray("T", loops.Output, "i")
	tile := &codegen.Buffer{Name: "T.t", Array: "T", Dims: []placement.BufDim{{Index: "i", Class: placement.ExtTile}}, MaxElems: 2}
	full := &codegen.Buffer{Name: "T.f", Array: "T", Dims: []placement.BufDim{{Index: "i", Class: placement.ExtFull}}, MaxElems: 6}
	tiles := func(n codegen.Node) *codegen.Loop {
		return &codegen.Loop{Index: "i", Range: 6, Tile: 2, Body: []codegen.Node{n}}
	}
	plan := &codegen.Plan{
		Prog:       prog,
		Cfg:        machine.Small(1 << 20),
		Tiles:      map[string]int64{"i": 2},
		Buffers:    []*codegen.Buffer{tile, full},
		DiskArrays: []codegen.DiskArray{{Name: "T", Indices: []string{"i"}, Dims: []int64{6}, Kind: loops.Output}},
		Body: []codegen.Node{
			tiles(&codegen.IO{Array: "T", Buffer: tile}),             // writes [0:2], [2:4], [4:6]
			tiles(&codegen.IO{Read: true, Array: "T", Buffer: tile}), // reads them back
			&codegen.IO{Read: true, Array: "T", Buffer: full},        // reads back [0:6]
			&codegen.IO{Array: "T", Buffer: full},                    // writes [0:6]
			&codegen.IO{Read: true, Array: "T", Buffer: tile},        // reads back [0:2] only
			tiles(&codegen.IO{Array: "T", Buffer: tile}),             // [2:4] and [4:6] clobber the [0:6] write
		},
	}
	want := []Diagnostic{
		{Rule: "S3", Array: "T", Pos: "i=2", Detail: `write of [2:4] to "T" overlaps an earlier write of [0:6] with no read-back in between`},
		{Rule: "S3", Array: "T", Pos: "i=4", Detail: `write of [4:6] to "T" overlaps an earlier write of [0:6] with no read-back in between`},
	}
	for name, rep := range map[string]*Report{"indexed": Check(plan), "linear": refCheckOpts(plan, Options{})} {
		var got []Diagnostic
		for _, d := range rep.Diags {
			if d.Rule == "S2" || d.Rule == "S3" {
				got = append(got, d)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s walk: schedule findings %+v, want exactly %+v; report:\n%s", name, got, want, rep)
		}
	}
}
