package disk

import (
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func testDisk() machine.Disk {
	return machine.Disk{SeekTime: 0.01, ReadBandwidth: 1000, WriteBandwidth: 500}
}

func TestSimDataRoundTrip(t *testing.T) {
	s := NewSim(testDisk(), true)
	a, err := s.Create("A", []int64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{1, 2, 3, 4, 5, 6}
	if err := a.WriteSection([]int64{1, 2}, []int64{2, 3}, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 6)
	if err := a.ReadSection([]int64{1, 2}, []int64{2, 3}, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, got, buf)
		}
	}
	// Untouched region must be zero.
	z := make([]float64, 1)
	if err := a.ReadSection([]int64{0, 0}, []int64{1, 1}, z); err != nil {
		t.Fatal(err)
	}
	if z[0] != 0 {
		t.Fatal("untouched element not zero")
	}
}

func TestSimStatsAccounting(t *testing.T) {
	s := NewSim(testDisk(), false)
	a, _ := s.Create("A", []int64{100, 100})
	if err := a.ReadSection([]int64{0, 0}, []int64{10, 10}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSection([]int64{5, 5}, []int64{20, 4}, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ReadOps != 1 || st.BytesRead != 100*8 {
		t.Fatalf("read stats wrong: %+v", st)
	}
	if st.WriteOps != 1 || st.BytesWritten != 80*8 {
		t.Fatalf("write stats wrong: %+v", st)
	}
	wantRead := 0.01 + 800.0/1000
	wantWrite := 0.01 + 640.0/500
	if st.ReadTime != wantRead || st.WriteTime != wantWrite {
		t.Fatalf("modelled times wrong: %+v (want %g/%g)", st, wantRead, wantWrite)
	}
	if st.Time() != wantRead+wantWrite {
		t.Fatal("Time() mismatch")
	}
	s.ResetStats()
	if s.Stats().ReadOps != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestSimSectionValidation(t *testing.T) {
	s := NewSim(testDisk(), false)
	a, _ := s.Create("A", []int64{4, 4})
	cases := []struct{ lo, shape []int64 }{
		{[]int64{0}, []int64{1}},        // rank mismatch
		{[]int64{0, 0}, []int64{5, 1}},  // overflow
		{[]int64{3, 3}, []int64{2, 1}},  // overflow from offset
		{[]int64{-1, 0}, []int64{1, 1}}, // negative lo
		{[]int64{0, 0}, []int64{0, 1}},  // empty shape
	}
	for i, c := range cases {
		if err := a.ReadSection(c.lo, c.shape, nil); err == nil {
			t.Errorf("case %d: invalid section accepted", i)
		}
	}
}

func TestSimCreateErrors(t *testing.T) {
	s := NewSim(testDisk(), false)
	if _, err := s.Create("A", []int64{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("A", []int64{2}); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := s.Open("missing"); err == nil {
		t.Fatal("open of missing array must fail")
	}
	sd := NewSim(testDisk(), true)
	if _, err := sd.Create("huge", []int64{1 << 20, 1 << 20}); err == nil {
		t.Fatal("data mode must reject paper-scale arrays")
	}
	if _, err := sd.Create("bad", []int64{0}); err == nil {
		t.Fatal("zero dim must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("B", []int64{2}); err == nil {
		t.Fatal("create after close must fail")
	}
}

func TestSimCostOnlyAllowsHugeArrays(t *testing.T) {
	s := NewSim(testDisk(), false)
	// 40000^2 doubles = 12.8 GB of virtual data.
	a, err := s.Create("A", []int64{40000, 40000})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{40000, 40000}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BytesRead; got != 40000*40000*8 {
		t.Fatalf("bytes read = %d", got)
	}
}

func TestLoadDumpArray(t *testing.T) {
	s := NewSim(testDisk(), true)
	s.Create("A", []int64{2, 2})
	if err := s.LoadArray("A", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := s.DumpArray("A")
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != 4 {
		t.Fatalf("dump = %v", got)
	}
	if s.Stats().ReadOps != 0 || s.Stats().WriteOps != 0 {
		t.Fatal("Load/Dump must not charge stats")
	}
	if err := s.LoadArray("A", []float64{1}); err == nil {
		t.Fatal("wrong length load must fail")
	}
	if err := s.LoadArray("missing", nil); err == nil {
		t.Fatal("load of missing array must fail")
	}
	costOnly := NewSim(testDisk(), false)
	costOnly.Create("B", []int64{2})
	if err := costOnly.LoadArray("B", []float64{1, 2}); err == nil {
		t.Fatal("load on cost-only backend must fail")
	}
	if _, err := costOnly.DumpArray("B"); err == nil {
		t.Fatal("dump on cost-only backend must fail")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a, err := fs.Create("A", []int64{5, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]float64, 2*3*2)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	lo, shape := []int64{1, 2, 1}, []int64{2, 3, 2}
	if err := a.WriteSection(lo, shape, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(buf))
	if err := a.ReadSection(lo, shape, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("file round trip mismatch at %d", i)
		}
	}
	// New files are zero-filled.
	z := make([]float64, 1)
	if err := a.ReadSection([]int64{0, 0, 0}, []int64{1, 1, 1}, z); err != nil {
		t.Fatal(err)
	}
	if z[0] != 0 {
		t.Fatal("fresh file array not zero")
	}
}

// TestFileSectionAllocsIndependentOfRuns pins the section paths' scratch
// discipline: window scratch comes from the store's pool and windows are
// iterated, so a call allocates the same whatever its run or window
// count. The first pair of sections lies in one checksum block, so only
// the run count (200 vs 2) differs; the second pair is one run each, in
// 1 vs 50 windows of one-element blocks.
func TestFileSectionAllocsIndependentOfRuns(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a, err := fs.Create("A", []int64{200, 8})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBlockElems(1)
	v, err := fs.Create("V", []int64{2000})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(a Array, lo, shape []int64) (read, write float64) {
		n, _ := CheckSection(a.Dims(), lo, shape)
		buf := make([]float64, n)
		write = testing.AllocsPerRun(10, func() {
			if err := a.WriteSection(lo, shape, buf); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(10, func() {
			if err := a.ReadSection(lo, shape, buf); err != nil {
				t.Fatal(err)
			}
		})
		return read, write
	}
	r2, w2 := allocs(a, []int64{0, 0}, []int64{2, 4})
	r200, w200 := allocs(a, []int64{0, 0}, []int64{200, 4})
	if r200 != r2 || w200 != w2 {
		t.Fatalf("allocations grow with the run count: read %v -> %v, write %v -> %v", r2, r200, w2, w200)
	}
	r1, w1 := allocs(v, []int64{0}, []int64{16})
	r50, w50 := allocs(v, []int64{0}, []int64{1600})
	if r50 != r1 || w50 != w1 {
		t.Fatalf("allocations grow with the window count: read %v -> %v, write %v -> %v", r1, r50, w1, w50)
	}
}

func TestFileAndSimAgree(t *testing.T) {
	// Property: a random sequence of section writes yields identical reads
	// from both backends.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim(testDisk(), true)
		fs, err := NewFileStore(t.TempDir(), testDisk())
		if err != nil {
			return false
		}
		defer fs.Close()
		dims := []int64{6, 5}
		sa, _ := sim.Create("X", dims)
		fa, _ := fs.Create("X", dims)
		for k := 0; k < 8; k++ {
			lo := []int64{rng.Int63n(5), rng.Int63n(4)}
			shape := []int64{1 + rng.Int63n(dims[0]-lo[0]), 1 + rng.Int63n(dims[1]-lo[1])}
			buf := make([]float64, shape[0]*shape[1])
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
			if sa.WriteSection(lo, shape, buf) != nil || fa.WriteSection(lo, shape, buf) != nil {
				return false
			}
		}
		full := dims[0] * dims[1]
		b1 := make([]float64, full)
		b2 := make([]float64, full)
		if sa.ReadSection([]int64{0, 0}, dims, b1) != nil || fa.ReadSection([]int64{0, 0}, dims, b2) != nil {
			return false
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreErrors(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Create("A", []int64{0}); err == nil {
		t.Fatal("zero dim must fail")
	}
	fs.Create("A", []int64{2})
	if _, err := fs.Create("A", []int64{2}); err == nil {
		t.Fatal("duplicate must fail")
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open missing must fail")
	}
	a, _ := fs.Open("A")
	if err := a.ReadSection([]int64{0}, []int64{2}, make([]float64, 1)); err == nil {
		t.Fatal("wrong buffer length must fail")
	}
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs1.Create("A", []int64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 15)
	for i := range buf {
		buf[i] = float64(i) * 1.5
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{3, 5}, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store instance over the same directory must find the array
	// with its dims and contents intact.
	fs2, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	b, err := fs2.Open("A")
	if err != nil {
		t.Fatal(err)
	}
	dims := b.Dims()
	if len(dims) != 2 || dims[0] != 3 || dims[1] != 5 {
		t.Fatalf("reopened dims = %v", dims)
	}
	got := make([]float64, 15)
	if err := b.ReadSection([]int64{0, 0}, []int64{3, 5}, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("persistence mismatch at %d", i)
		}
	}
	// Creating over an existing file must fail.
	if _, err := fs2.Create("A", []int64{3, 5}); err == nil {
		t.Fatal("create over existing file must fail")
	}
}

func TestFileStoreRejectsNonDRAFiles(t *testing.T) {
	dir := t.TempDir()
	if err := writeJunk(dir + "/junk.dra"); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Open("junk"); err == nil {
		t.Fatal("non-DRA file must be rejected")
	}
}

func writeJunk(path string) error {
	return os.WriteFile(path, []byte("not a dra file at all........"), 0o644)
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ReadOps: 1, BytesRead: 8, ReadTime: 0.5}
	b := Stats{WriteOps: 2, BytesWritten: 16, WriteTime: 1.5}
	a.Add(b)
	if a.ReadOps != 1 || a.WriteOps != 2 || a.Time() != 2.0 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}
