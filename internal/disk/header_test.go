package disk

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// draHeader encodes a DRA2 header.
func draHeader(dims []int64, blockElems int64) []byte {
	hdr := append(draMagic2[:0:0], draMagic2[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(dims)))
	for _, d := range dims {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d))
	}
	return binary.LittleEndian.AppendUint64(hdr, uint64(blockElems))
}

// overflowingDims are headers whose element count wraps an int64 (the
// first two to exactly 0) or whose data the file cannot hold.
var overflowingDims = [][]int64{
	{1 << 32, 1 << 32},
	{1 << 62, 4},
	{3037000500, 3037000500},
	{1 << 40},
}

// FuzzParseHeader throws arbitrary bytes at the DRA header parser as a
// whole file and checks that whatever it accepts is a header the file can
// back: a rank of at most 16, positive dims, a positive block size, and
// a data region that fits in an int64 and in the file.
func FuzzParseHeader(f *testing.F) {
	f.Add(append(draHeader([]int64{3, 2}, 4), make([]byte, 48)...))
	f.Add(append(draHeader([]int64{5}, 0), make([]byte, 40)...))
	f.Add(draHeader(nil, 1))
	f.Add([]byte("DRA2 but truncated"))
	for _, dims := range overflowingDims {
		f.Add(draHeader(dims, DefaultBlockElems))
		f.Add(append(draHeader(dims, 1), make([]byte, 64)...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dims, blockElems, err := parseHeader(bytes.NewReader(raw), int64(len(raw)), "fuzz.dra")
		if err != nil {
			return
		}
		if len(dims) > 16 {
			t.Fatalf("accepted rank %d", len(dims))
		}
		if blockElems <= 0 {
			t.Fatalf("accepted block size %d", blockElems)
		}
		header := headerSize2(len(dims))
		n, ok := elements(dims, header)
		if !ok || header+8*n > int64(len(raw)) {
			t.Fatalf("accepted dims %v in a %d-byte file", dims, len(raw))
		}
		if !bytes.Equal(raw[:header], draHeader(dims, blockElems)) {
			t.Fatalf("accepted header does not re-encode: %x", raw[:header])
		}
	})
}

// TestOpenRejectsOverflowingDims is the regression test for headers whose
// element count wraps: Open used to spin forever rebuilding the checksum
// index of what it took for an empty array. Every such header without a
// sidecar (Open rebuilds the index from the data) must now fail fast.
func TestOpenRejectsOverflowingDims(t *testing.T) {
	for _, dims := range overflowingDims {
		for _, blockElems := range []int64{1, DefaultBlockElems} {
			dir := t.TempDir()
			hdr := append(draHeader(dims, blockElems), make([]byte, 64)...)
			if err := os.WriteFile(filepath.Join(dir, "A.dra"), hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := NewFileStore(dir, testDisk())
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := fs.Open("A")
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("dims %v, block size %d: Open accepted the header", dims, blockElems)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("dims %v, block size %d: Open still running after 10 s", dims, blockElems)
			}
			fs.Close()
		}
	}
}

// TestParseHeaderRejectsDRA1: the pre-checksum DRA1 format (magic, rank
// and dims, no block granularity) is not read; a DRA1 file, whole or cut
// after its magic, is "not a DRA file", in a store as in the parser.
func TestParseHeaderRejectsDRA1(t *testing.T) {
	dra1 := append([]byte{'D', 'R', 'A', '1', 0, 0, 0, 0}, draHeader([]int64{5}, 0)[8:24]...)
	dra1 = append(dra1, make([]byte, 40)...)
	for _, raw := range [][]byte{dra1, dra1[:8]} {
		_, _, err := parseHeader(bytes.NewReader(raw), int64(len(raw)), "old.dra")
		if err == nil || !strings.Contains(err.Error(), "not a DRA file") {
			t.Errorf("%d-byte DRA1 file: err = %v, want \"not a DRA file\"", len(raw), err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "A.dra"), dra1, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir, testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Open("A"); err == nil || !strings.Contains(err.Error(), "not a DRA file") {
		t.Fatalf("Open of a DRA1 file: err = %v, want \"not a DRA file\"", err)
	}
}

// TestCreateRejectsOverflowingDims: dims whose element count wraps an
// int64 would size the data file from the wrapped count.
func TestCreateRejectsOverflowingDims(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), testDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, dims := range overflowingDims[:3] {
		if _, err := fs.Create("A", dims); err == nil {
			t.Errorf("dims %v: Create accepted them", dims)
		}
	}
}

// TestSieveEmptySectionHasNoWindow: a walk over a section with no
// elements ends at once instead of handing out empty windows forever.
func TestSieveEmptySectionHasNoWindow(t *testing.T) {
	s := &sieve{a: &fileArray{n: 0, blockElems: 4}}
	s.init([]int64{0}, []int64{0}, []int64{0})
	if s.next() {
		t.Fatal("an empty section has a window")
	}
}
