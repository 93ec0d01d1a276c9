package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
)

// sieveDims are arrays of ranks 1–4 with a few thousand elements each:
// with checksum blocks of 1–64 elements their sections span many blocks
// and cross window boundaries.
var sieveDims = [][]int64{{4500}, {61, 70}, {13, 17, 19}, {7, 9, 6, 11}}

// randomSection draws a non-empty section of an array with the given dims.
func randomSection(rng *rand.Rand, dims []int64) (lo, shape []int64) {
	lo, shape = make([]int64, len(dims)), make([]int64, len(dims))
	for i, d := range dims {
		lo[i] = rng.Int63n(d)
		shape[i] = 1 + rng.Int63n(d-lo[i])
	}
	return lo, shape
}

// sectionElem returns the flat offset of the k-th packed element of a
// section.
func sectionElem(dims, lo, shape []int64, k int64) int64 {
	pos := make([]int64, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		pos[i] = lo[i] + k%shape[i]
		k /= shape[i]
	}
	return FlatOffset(dims, pos)
}

// touchedBlocks counts, element by element, the distinct checksum blocks
// a section touches.
func touchedBlocks(dims, lo, shape []int64, blockElems int64) int64 {
	n, _ := CheckSection(dims, lo, shape)
	seen := map[int64]bool{}
	for k := int64(0); k < n; k++ {
		seen[sectionElem(dims, lo, shape, k)/blockElems] = true
	}
	return int64(len(seen))
}

func randomFloats(rng *rand.Rand, n int64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// TestFileStoreSectionsMatchSim is the windowed reader's differential
// test: random sections of rank 1–4 arrays with checksum blocks of 1, 3,
// 7 and 64 elements, on a FileStore and a data-mode Sim side by side. The
// data must agree, every operation must verify exactly the blocks it
// touches (on both backends), and bit rot in any touched block must be
// caught by reads and by writes — a refused write leaving the file and
// its index untouched. Silent writes must leave both backends with the
// same stored values and index.
func TestFileStoreSectionsMatchSim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, be := range []int64{1, 3, 7, 64} {
		fs, err := NewFileStore(t.TempDir(), testDisk())
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		sim := NewSim(testDisk(), true)
		fs.SetBlockElems(be)
		sim.SetBlockElems(be)
		for _, dims := range sieveDims {
			name := fmt.Sprintf("r%d", len(dims))
			t.Run(fmt.Sprintf("block%d/%s", be, name), func(t *testing.T) {
				fa, err := fs.Create(name, dims)
				if err != nil {
					t.Fatal(err)
				}
				sa, err := sim.Create(name, dims)
				if err != nil {
					t.Fatal(err)
				}
				checkSectionsMatch(t, rng, fs, sim, fa, sa, be)
				checkRotCaught(t, rng, fs, sim, fa.(*fileArray), sa, be)
				checkSilentMatches(t, rng, fs, sim, fa.(*fileArray), sa.(*simArray))
			})
		}
	}
}

func checkSectionsMatch(t *testing.T, rng *rand.Rand, fs *FileStore, sim *Sim, fa, sa Array, be int64) {
	t.Helper()
	dims := fa.Dims()
	for op := 0; op < 16; op++ {
		lo, shape := randomSection(rng, dims)
		n, _ := CheckSection(dims, lo, shape)
		fBefore, sBefore := fs.Integrity(), sim.Integrity()
		if op%2 == 0 {
			buf := randomFloats(rng, n)
			if err := fa.WriteSection(lo, shape, buf); err != nil {
				t.Fatal(err)
			}
			if err := sa.WriteSection(lo, shape, buf); err != nil {
				t.Fatal(err)
			}
		} else {
			got, want := make([]float64, n), make([]float64, n)
			if err := fa.ReadSection(lo, shape, got); err != nil {
				t.Fatal(err)
			}
			if err := sa.ReadSection(lo, shape, want); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("read lo=%v shape=%v: file and sim disagree", lo, shape)
			}
		}
		fv := fs.Integrity().VerifiedBlocks - fBefore.VerifiedBlocks
		sv := sim.Integrity().VerifiedBlocks - sBefore.VerifiedBlocks
		if brute := touchedBlocks(dims, lo, shape, be); fv != brute || sv != brute {
			t.Fatalf("op %d lo=%v shape=%v: verified file %d, sim %d; touched %d", op, lo, shape, fv, sv, brute)
		}
	}
	want, err := sim.DumpArray(fa.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(want))
	if err := fa.ReadSection(make([]int64, len(dims)), dims, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("full readback differs from sim")
	}
}

func checkRotCaught(t *testing.T, rng *rand.Rand, fs *FileStore, sim *Sim, fa *fileArray, sa Array, be int64) {
	t.Helper()
	dims := fa.Dims()
	for trial := 0; trial < 6; trial++ {
		lo, shape := randomSection(rng, dims)
		n, _ := CheckSection(dims, lo, shape)
		elem := sectionElem(dims, lo, shape, rng.Int63n(n))
		bit := uint(rng.Intn(64))
		flip := func() {
			for _, a := range []Array{fa, sa} {
				if err := a.(BitFlipper).FlipBit(elem, bit); err != nil {
					t.Fatal(err)
				}
			}
		}
		flip()
		fBefore, sBefore := fs.Integrity(), sim.Integrity()
		err := fa.ReadSection(lo, shape, make([]float64, n))
		var ie *IntegrityError
		if !IsIntegrity(err) || !asIntegrity(err, &ie) || ie.Block != elem/be || ie.Blocks != 1 {
			t.Fatalf("read over rot in block %d: %v", elem/be, err)
		}
		if !IsIntegrity(sa.ReadSection(lo, shape, make([]float64, n))) {
			t.Fatal("sim read missed rot")
		}
		if df, ds := fs.Integrity().Detected-fBefore.Detected, sim.Integrity().Detected-sBefore.Detected; df != 1 || ds != 1 {
			t.Fatalf("detections: file %d, sim %d; want 1", df, ds)
		}

		raw, err := os.ReadFile(fs.path(fa.name))
		if err != nil {
			t.Fatal(err)
		}
		sums := slices.Clone(fa.sums)
		buf := randomFloats(rng, n)
		if err := fa.WriteSection(lo, shape, buf); !IsIntegrity(err) {
			t.Fatalf("write over rot in block %d: %v", elem/be, err)
		}
		if !IsIntegrity(sa.WriteSection(lo, shape, buf)) {
			t.Fatal("sim write missed rot")
		}
		after, err := os.ReadFile(fs.path(fa.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, after) || !slices.Equal(sums, fa.sums) {
			t.Fatal("refused write changed the file or its index")
		}
		if fd, sd := fs.Integrity().Detected-fBefore.Detected, sim.Integrity().Detected-sBefore.Detected; fd != 2 || sd != 2 {
			t.Fatalf("detections after read and write: file %d, sim %d; want 2", fd, sd)
		}
		flip() // heal, so the next trial starts clean
	}
}

// checkSilentMatches lies with both backends the same way and compares
// what they keep: the stored values (only the torn prefix persists) and
// the index (advanced as for a full write).
func checkSilentMatches(t *testing.T, rng *rand.Rand, fs *FileStore, sim *Sim, fa *fileArray, sa *simArray) {
	t.Helper()
	dims := fa.Dims()
	for _, mode := range []SilentMode{SilentLost, SilentTorn, SilentTorn} {
		lo, shape := randomSection(rng, dims)
		n, _ := CheckSection(dims, lo, shape)
		buf := randomFloats(rng, n)
		if err := fa.WriteSectionSilent(lo, shape, buf, mode); err != nil {
			t.Fatal(err)
		}
		if err := sa.WriteSectionSilent(lo, shape, buf, mode); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(fs.path(fa.name))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, fa.n)
		decode(got, raw[fa.header:])
		if !slices.Equal(got, sa.data) || !slices.Equal(fa.sums, sa.sums) {
			t.Fatalf("silent mode %d lo=%v shape=%v: file and sim keep different data or index", mode, lo, shape)
		}
		for _, st := range []IntegrityStore{fs, sim} {
			if err := st.RebuildChecksums(fa.name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func asIntegrity(err error, ie **IntegrityError) bool {
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Transient() {
		return false
	}
	return errors.As(err, ie)
}

// TestFileStoreConcurrentSections runs overlapping reads of one array on
// four goroutines while a writer keeps rewriting part of it (run it under
// -race). Each read must see the array either before or
// after any one write, never a mix and never another call's scratch.
func TestFileStoreConcurrentSections(t *testing.T) {
	fs, _ := newTestStore(t)
	defer fs.Close()
	dims := []int64{40, 50}
	a, err := fs.Create("A", dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSection([]int64{0, 0}, dims, seqFloats(2000)); err != nil {
		t.Fatal(err)
	}
	wlo, wshape := []int64{10, 5}, []int64{20, 40}
	inside := func(f int64) bool {
		r, c := f/dims[1], f%dims[1]
		return r >= wlo[0] && r < wlo[0]+wshape[0] && c >= wlo[1] && c < wlo[1]+wshape[1]
	}
	value := func(gen int, f int64) float64 {
		if gen == 0 || !inside(f) {
			return float64(f) + 0.5
		}
		return -float64(f) - float64(gen)*1e5
	}
	gens := [2][]float64{}
	for g := range gens {
		for k := int64(0); k < wshape[0]*wshape[1]; k++ {
			gens[g] = append(gens[g], value(g+1, sectionElem(dims, wlo, wshape, k)))
		}
	}
	done := make(chan error, 1)
	go func() {
		for r := 0; r < 40; r++ {
			if err := a.WriteSection(wlo, wshape, gens[r%2]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	sections := [][2][]int64{
		{{0, 0}, {40, 50}},
		{{5, 3}, {30, 40}},
		{{12, 0}, {10, 50}},
		{{0, 20}, {40, 7}},
	}
	for round := 0; round < 25; round++ {
		// Four plain goroutines read one section each, concurrently with
		// the writer and with each other.
		bufs := make([][]float64, len(sections))
		errs := make([]error, len(sections))
		var wg sync.WaitGroup
		for i, sec := range sections {
			n, _ := CheckSection(dims, sec[0], sec[1])
			bufs[i] = make([]float64, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = a.ReadSection(sec[0], sec[1], bufs[i])
			}()
		}
		wg.Wait()
		for i, sec := range sections {
			if err := errs[i]; err != nil {
				t.Fatal(err)
			}
			gen := -1
			for k, got := range bufs[i] {
				f := sectionElem(dims, sec[0], sec[1], int64(k))
				if gen < 0 && inside(f) {
					for g := 0; g < 3; g++ {
						if got == value(g, f) {
							gen = g
						}
					}
				}
				if want := value(max(gen, 0), f); got != want {
					t.Fatalf("round %d section %v: element %d = %v, want %v (generation %d)", round, sec, f, got, want, gen)
				}
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// FuzzFileStoreSection round-trips random sections of a random array —
// rank 0–4, random dims and checksum block size — through a FileStore
// against an in-memory reference, then reopens the store and reads the
// whole array back.
func FuzzFileStoreSection(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2))
	f.Add(int64(7), uint8(4), uint8(0))
	f.Add(int64(42), uint8(1), uint8(63))
	f.Add(int64(3), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rank, blockElems uint8) {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int64, rank%5)
		n := int64(1)
		for i := range dims {
			dims[i] = 1 + rng.Int63n(9)
			n *= dims[i]
		}
		dir := t.TempDir()
		fs, err := NewFileStore(dir, testDisk())
		if err != nil {
			t.Fatal(err)
		}
		fs.SetBlockElems(int64(blockElems%64) + 1)
		a, err := fs.Create("A", dims)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, n)
		for op := 0; op < 8; op++ {
			lo, shape := randomSection(rng, dims)
			k, _ := CheckSection(dims, lo, shape)
			if rng.Intn(2) == 0 {
				buf := randomFloats(rng, k)
				if err := a.WriteSection(lo, shape, buf); err != nil {
					t.Fatal(err)
				}
				copySection(ref, dims, lo, shape, buf, true)
				continue
			}
			got, want := make([]float64, k), make([]float64, k)
			if err := a.ReadSection(lo, shape, got); err != nil {
				t.Fatal(err)
			}
			copySection(ref, dims, lo, shape, want, false)
			if !slices.Equal(got, want) {
				t.Fatalf("dims %v lo %v shape %v: got %v, want %v", dims, lo, shape, got, want)
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		fs2, err := NewFileStore(dir, testDisk())
		if err != nil {
			t.Fatal(err)
		}
		defer fs2.Close()
		a2, err := fs2.Open("A")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := a2.ReadSection(make([]int64, len(dims)), dims, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("dims %v: reopened array differs from reference", dims)
		}
	})
}

// TestWritebackSpanRule pins when a write starts writeback: each time the
// bytes it has put in the file since its last writeback reach a full window
// (sieveBlocks one-element blocks here), never for less. A strided section
// counts the bytes its windows write, and a silent write counts only the
// part that reaches the file.
func TestWritebackSpanRule(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.SetBlockElems(1)
	a, err := fs.Create("A", []int64{80, 40})
	if err != nil {
		t.Fatal(err)
	}
	fa := a.(*fileArray)
	const w = sieveBlocks
	for _, tc := range []struct {
		name      string
		lo, shape []int64
		silent    bool
		mode      SilentMode
		want      int64
	}{
		{"one element short", []int64{0, 0}, []int64{1, w - 1}, false, 0, 0},
		{"one full window", []int64{1, 0}, []int64{1, w}, false, 0, 1},
		{"two windows and two short tails", []int64{2, 0}, []int64{2, w + 4}, false, 0, 2},
		{"strided column, one block per window", []int64{0, 5}, []int64{w, 1}, false, 0, 1},
		{"strided column one element short", []int64{0, 5}, []int64{w - 1, 1}, false, 0, 0},
		{"silently lost", []int64{40, 0}, []int64{2, w}, true, SilentLost, 0},
		{"silently torn, one row persists", []int64{40, 0}, []int64{2, w}, true, SilentTorn, 1},
	} {
		n, _ := CheckSection(fa.dims, tc.lo, tc.shape)
		before := fa.writebacks
		if tc.silent {
			err = fa.WriteSectionSilent(tc.lo, tc.shape, seqFloats(int(n)), tc.mode)
		} else {
			err = a.WriteSection(tc.lo, tc.shape, seqFloats(int(n)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := fa.writebacks - before; got != tc.want {
			t.Errorf("%s (%d elements): %d writebacks, want %d", tc.name, n, got, tc.want)
		}
	}
}

// BenchmarkFileStoreSection measures the section shapes the file
// workloads lean on: a strided read of 32-byte runs (the reduce-strided
// A tiles), a contiguous multi-MB write (the thin-write output), and that
// write made durable by Sync, where the writeback store starts as full
// windows land shortens the fsync.
func BenchmarkFileStoreSection(b *testing.B) {
	run := func(b *testing.B, dims, lo, shape []int64, write, sync bool) {
		fs, err := NewFileStore(b.TempDir(), testDisk())
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		a, err := fs.Create("A", dims)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := CheckSection(dims, lo, shape)
		buf := randomFloats(rand.New(rand.NewSource(1)), n)
		b.SetBytes(n * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if write {
				err = a.WriteSection(lo, shape, buf)
			} else {
				err = a.ReadSection(lo, shape, buf)
			}
			if err == nil && sync {
				err = fs.Sync()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("strided-read-32B-runs", func(b *testing.B) {
		run(b, []int64{200, 200, 8}, []int64{50, 50, 4}, []int64{100, 100, 4}, false, false)
	})
	b.Run("contiguous-write-4MB", func(b *testing.B) {
		run(b, []int64{1024, 1024}, []int64{100, 0}, []int64{512, 1024}, true, false)
	})
	b.Run("contiguous-write-sync-10MB", func(b *testing.B) {
		run(b, []int64{1280, 1024}, []int64{0, 0}, []int64{1280, 1024}, true, true)
	})
}
