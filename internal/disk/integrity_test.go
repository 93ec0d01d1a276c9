package disk

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
)

// smallBlocks shrinks the checksum granularity so tiny test arrays span
// several blocks.
const smallBlocks = 8

// newTestStore builds a FileStore over a temp dir with small checksum
// blocks.
func newTestStore(t *testing.T) (*FileStore, string) {
	t.Helper()
	dir := t.TempDir()
	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBlockElems(smallBlocks)
	return fs, dir
}

func seqFloats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) + 0.5
	}
	return out
}

func TestFileStoreDRA2RoundTrip(t *testing.T) {
	fs, dir := newTestStore(t)
	a, err := fs.Create("A", []int64{6, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := seqFloats(30)
	if err := a.WriteSection([]int64{0, 0}, []int64{6, 5}, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 30)
	if err := a.ReadSection([]int64{0, 0}, []int64{6, 5}, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
	ic := fs.Integrity()
	if ic.VerifiedBlocks == 0 || ic.Detected != 0 {
		t.Fatalf("integrity counts %+v; want verification and no detections", ic)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory validates the manifest and
	// reads the same bytes back through the persisted checksum index.
	fs2, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	a2, err := fs2.Open("A")
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]float64, 30)
	if err := a2.ReadSection([]int64{0, 0}, []int64{6, 5}, got2); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("reopened mismatch at %d", i)
		}
	}
}

// corruptByte flips one payload byte of an array file on disk, beneath
// the live store.
func corruptByte(t *testing.T, dir, name string, elem int64, rank int) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name+".dra"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := headerSize2(rank) + elem*8
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	fs, dir := newTestStore(t)
	defer fs.Close()
	a, _ := fs.Create("A", []int64{4, 8})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, seqFloats(32)); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, dir, "A", 3, 2)

	err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32))
	if err == nil {
		t.Fatal("corrupted read succeeded")
	}
	if !IsIntegrity(err) {
		t.Fatalf("error is not an integrity failure: %v", err)
	}
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("integrity failure not wrapped in IOError: %v", err)
	}
	if ioe.Transient() {
		t.Fatal("integrity failure must be non-retryable")
	}
	var ie *IntegrityError
	errors.As(err, &ie)
	if ie.Array != "A" || ie.Block != 0 || ie.Stored == ie.Computed {
		t.Fatalf("bad attribution: %+v", ie)
	}
	if ic := fs.Integrity(); ic.Detected == 0 {
		t.Fatalf("detection not counted: %+v", ic)
	}

	// The write path verifies covering blocks too (read-modify-verify):
	// a partial-block write over rot must not silently bless it.
	werr := a.WriteSection([]int64{0, 0}, []int64{1, 2}, []float64{1, 2})
	if !IsIntegrity(werr) {
		t.Fatalf("partial write over rot did not detect: %v", werr)
	}
}

func TestScrubDetectAndRepair(t *testing.T) {
	fs, dir := newTestStore(t)
	defer fs.Close()
	a, _ := fs.Create("A", []int64{4, 8})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, seqFloats(32)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("B", []int64{3, 3}); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, dir, "A", 10, 2)

	reg := obs.NewRegistry()
	rep, err := Scrub(fs, ScrubOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrays != 2 || rep.OK() || len(rep.Defects) != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
	d := rep.Defects[0]
	if d.Array != "A" || d.Block != 10/smallBlocks {
		t.Fatalf("defect attribution: %+v", d)
	}
	if got := reg.Snapshot().Counters[MetricScrubDefects]; got != 1 {
		t.Fatalf("scrub defect counter = %d", got)
	}

	rep2, err := Scrub(fs, ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired != 1 {
		t.Fatalf("repair report: %+v", rep2)
	}
	rep3, err := Scrub(fs, ScrubOptions{})
	if err != nil || !rep3.OK() {
		t.Fatalf("post-repair scrub not clean: %+v, %v", rep3, err)
	}
	// Reads now accept the repaired (blessed) contents.
	if err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32)); err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
}

// writeLegacyDRA1 handcrafts a pre-checksum DRA1 file with zero data.
func writeLegacyDRA1(t *testing.T, dir, name string, dims []int64) {
	t.Helper()
	rank := len(dims)
	n := int64(1)
	hdr := make([]byte, headerSize(rank))
	copy(hdr, draMagic[:])
	putLE(hdr[8:], int64(rank))
	for i, d := range dims {
		putLE(hdr[16+i*8:], d)
		n *= d
	}
	raw := append(hdr, make([]byte, n*8)...)
	if err := os.WriteFile(filepath.Join(dir, name+".dra"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func putLE(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}

func TestDRA1Migration(t *testing.T) {
	dir := t.TempDir()
	writeLegacyDRA1(t, dir, "L", []int64{6, 4})

	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBlockElems(smallBlocks)
	a, err := fs.Open("L")
	if err != nil {
		t.Fatalf("open legacy: %v", err)
	}
	// Reads verify against the index rebuilt from the legacy contents.
	if err := a.ReadSection([]int64{0, 0}, []int64{6, 4}, make([]float64, 24)); err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	// Writes work in place; the file keeps its DRA1 header, checksums
	// live in the sidecar, and Sync adopts it into the manifest.
	if err := a.WriteSection([]int64{1, 0}, []int64{2, 4}, seqFloats(8)); err != nil {
		t.Fatalf("legacy write: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after migration: %v", err)
	}
	if ent, ok := m.Arrays["L"]; !ok || ent.Format != formatDRA1 {
		t.Fatalf("legacy array not adopted: %+v", m.Arrays)
	}

	fs2, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	a2, err := fs2.Open("L")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 8)
	if err := a2.ReadSection([]int64{1, 0}, []int64{2, 4}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.5 {
		t.Fatalf("legacy data lost: %v", got)
	}
	// Corruption in a migrated file is detected like any other.
	corrupt := filepath.Join(dir, "L.dra")
	raw, _ := os.ReadFile(corrupt)
	raw[headerSize(2)+5*8] ^= 1
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a2.ReadSection([]int64{0, 0}, []int64{6, 4}, make([]float64, 24)); !IsIntegrity(err) {
		t.Fatalf("legacy corruption not detected: %v", err)
	}
}

func TestFileStoreReopen(t *testing.T) {
	fs, _ := newTestStore(t)
	a, _ := fs.Create("A", []int64{4, 4})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 4}, seqFloats(16)); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{4, 4}, make([]float64, 16)); err != nil {
		t.Fatal(err)
	}
	before := fs.Integrity()
	if before.VerifiedBlocks == 0 {
		t.Fatal("no verification before reopen")
	}

	be, err := fs.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	nfs, ok := be.(*FileStore)
	if !ok || nfs == fs {
		t.Fatalf("Reopen returned %T (same=%v)", be, nfs == fs)
	}
	defer nfs.Close()
	// Old handles are closed; the new store opens fresh ones.
	a2, err := nfs.Open("A")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 16)
	if err := a2.ReadSection([]int64{0, 0}, []int64{4, 4}, got); err != nil {
		t.Fatal(err)
	}
	if got[15] != 15.5 {
		t.Fatalf("data lost across reopen: %v", got)
	}
	// Lifetime integrity counters survive the reopen.
	after := nfs.Integrity()
	if after.VerifiedBlocks <= before.VerifiedBlocks {
		t.Fatalf("integrity counters not carried: %+v -> %+v", before, after)
	}
}

// TestDirtyEpochCrashRecovery kills a store (by abandoning it without
// Close) mid-epoch and checks that a fresh store over the surviving
// files rebuilds the index from content instead of trusting the stale
// sidecar: no false detections, scrub clean.
func TestDirtyEpochCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBlockElems(smallBlocks)
	a, _ := fs.Create("A", []int64{4, 8})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, seqFloats(32)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// New epoch: the dirty marker is persisted before the data mutates,
	// then the process "dies" — no Sync, no Close.
	if err := a.WriteSection([]int64{0, 0}, []int64{2, 8}, seqFloats(16)); err != nil {
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
	if err := a2.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32)); err != nil {
		t.Fatalf("post-crash read tripped on stale index: %v", err)
	}
	rep, err := Scrub(fs2, ScrubOptions{})
	if err != nil || !rep.OK() {
		t.Fatalf("post-crash scrub: %+v, %v", rep, err)
	}
}

// TestDirtyEpochCrashRecoveryAfterWriteback is TestDirtyEpochCrashRecovery
// on the writeback path: the abandoned epoch's write spans full windows of
// one-element blocks, so store starts writing them back before the
// "crash". Early writeback must not make the dirty marker redundant: the
// reopened store still rebuilds the index from the file, every read
// verifies and returns the last write, and the scrub is clean.
func TestDirtyEpochCrashRecoveryAfterWriteback(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBlockElems(1)
	a, _ := fs.Create("A", []int64{4, 24})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 24}, seqFloats(96)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want := seqFloats(96)
	epoch := make([]float64, 48)
	for i := range epoch {
		epoch[i] = -float64(i)
	}
	copy(want[24:], epoch)
	fa := a.(*fileArray)
	before := fa.writebacks
	if err := a.WriteSection([]int64{1, 0}, []int64{2, 24}, epoch); err != nil {
		t.Fatal(err)
	}
	if fa.writebacks == before {
		t.Fatal("a 48-element write over one-element blocks started no writeback")
	}
	// The process "dies" here: no Sync, no Close.
	raw, err := os.ReadFile(filepath.Join(dir, "A.sum"))
	if err != nil {
		t.Fatal(err)
	}
	if _, dirty, err := decodeSums(raw, 96); err != nil || !dirty {
		t.Fatalf("sidecar after the abandoned epoch: dirty %v, err %v; want a dirty marker", dirty, err)
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
	if !a2.(*fileArray).dirty {
		t.Fatal("reopened store trusted the dirty-marked index instead of rebuilding it")
	}
	got := make([]float64, 96)
	if err := a2.ReadSection([]int64{0, 0}, []int64{4, 24}, got); err != nil {
		t.Fatalf("post-crash read tripped on stale index: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("post-crash read: got %v, want %v", got, want)
	}
	if v := fs2.Integrity().VerifiedBlocks; v != 96 {
		t.Fatalf("post-crash read verified %d blocks, want 96", v)
	}
	rep, err := Scrub(fs2, ScrubOptions{})
	if err != nil || !rep.OK() {
		t.Fatalf("post-crash scrub: %+v, %v", rep, err)
	}
}

func TestManifestValidation(t *testing.T) {
	fs, dir := newTestStore(t)
	if _, err := fs.Create("A", []int64{4, 4}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Manifest disagreeing with the file's self-describing header: the
	// listed DRA2 array has been replaced by a legacy DRA1 file.
	if err := os.Remove(filepath.Join(dir, "A.dra")); err != nil {
		t.Fatal(err)
	}
	writeLegacyDRA1(t, dir, "A", []int64{4, 4})
	if _, err := NewFileStore(dir, testDisk()); err == nil {
		t.Fatal("format disagreement not caught")
	}
	// A listed file deleted out-of-band is array removal, not corruption:
	// the store opens, prunes the entry, and the name is free to
	// re-create (re-running a saved plan deletes its outputs first).
	if err := os.Remove(filepath.Join(dir, "A.dra")); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatalf("out-of-band deletion bricked the store: %v", err)
	}
	defer fs2.Close()
	if _, err := fs2.Open("A"); err == nil {
		t.Fatal("pruned array still opens")
	}
	if _, err := fs2.Create("A", []int64{4, 4}); err != nil {
		t.Fatalf("pruned name not re-creatable: %v", err)
	}
	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after prune+recreate: %v", err)
	}
	if ent, ok := m.Arrays["A"]; !ok || ent.Format != formatDRA2 {
		t.Fatalf("recreated array not listed: %+v", m.Arrays)
	}
}

func TestSidecarCorruptionRejected(t *testing.T) {
	fs, dir := newTestStore(t)
	a, _ := fs.Create("A", []int64{4, 4})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 4}, seqFloats(16)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, "A.sum")
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // trailer CRC mismatch
	if err := os.WriteFile(side, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := fs2.Open("A"); err == nil {
		t.Fatal("corrupt sidecar accepted")
	}
}

func TestSimShadowChecksums(t *testing.T) {
	s := NewSim(testDisk(), true)
	s.SetBlockElems(smallBlocks)
	a, _ := s.Create("A", []int64{4, 8})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, seqFloats(32)); err != nil {
		t.Fatal(err)
	}
	fl, ok := a.(BitFlipper)
	if !ok {
		t.Fatal("sim array is not a BitFlipper")
	}
	if err := fl.FlipBit(5, 3); err != nil {
		t.Fatal(err)
	}
	err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32))
	if !IsIntegrity(err) {
		t.Fatalf("sim missed bit rot: %v", err)
	}
	if ic := s.Integrity(); ic.Detected == 0 {
		t.Fatalf("sim detection not counted: %+v", ic)
	}
	rep, err := Scrub(s, ScrubOptions{Repair: true})
	if err != nil || rep.OK() || rep.Repaired == 0 {
		t.Fatalf("sim scrub repair: %+v, %v", rep, err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32)); err != nil {
		t.Fatalf("post-repair sim read: %v", err)
	}
}

func TestSimCostOnlyPoison(t *testing.T) {
	s := NewSim(testDisk(), false)
	s.SetBlockElems(smallBlocks)
	a, _ := s.Create("A", []int64{4, 8})
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.(BitFlipper).FlipBit(9, 0); err != nil {
		t.Fatal(err)
	}
	err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, nil)
	if !IsIntegrity(err) {
		t.Fatalf("cost-only sim missed poison: %v", err)
	}
	rep, err := Scrub(s, ScrubOptions{Repair: true})
	if err != nil || len(rep.Defects) != 1 {
		t.Fatalf("cost-only scrub: %+v, %v", rep, err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{4, 8}, nil); err != nil {
		t.Fatalf("post-repair cost-only read: %v", err)
	}
}

func TestSilentWriteModesDetected(t *testing.T) {
	backends := map[string]Backend{
		"sim": func() Backend {
			s := NewSim(testDisk(), true)
			s.SetBlockElems(smallBlocks)
			return s
		}(),
	}
	fs, _ := newTestStore(t)
	backends["file"] = fs
	for name, be := range backends {
		for _, mode := range []SilentMode{SilentLost, SilentTorn} {
			aname := "A"
			if mode == SilentTorn {
				aname = "B"
			}
			a, err := be.Create(aname, []int64{4, 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.WriteSection([]int64{0, 0}, []int64{4, 8}, seqFloats(32)); err != nil {
				t.Fatal(err)
			}
			// The lying write: acknowledged and indexed, data not (fully)
			// persisted.
			vals := make([]float64, 32)
			for i := range vals {
				vals[i] = -float64(i) - 1
			}
			sw, ok := a.(SilentWriter)
			if !ok {
				t.Fatalf("%s array is not a SilentWriter", name)
			}
			if err := sw.WriteSectionSilent([]int64{0, 0}, []int64{4, 8}, vals, mode); err != nil {
				t.Fatal(err)
			}
			err = a.ReadSection([]int64{0, 0}, []int64{4, 8}, make([]float64, 32))
			if !IsIntegrity(err) {
				t.Fatalf("%s mode %d: silent corruption not detected: %v", name, mode, err)
			}
		}
	}
}
