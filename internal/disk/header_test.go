package disk

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// draHeader encodes a DRA header: DRA1 when blockElems is 0, DRA2
// otherwise.
func draHeader(dims []int64, blockElems int64) []byte {
	magic := draMagic2
	if blockElems == 0 {
		magic = draMagic
	}
	hdr := append(magic[:0:0], magic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(dims)))
	for _, d := range dims {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d))
	}
	if blockElems != 0 {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(blockElems))
	}
	return hdr
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
// back: a rank of at most 16, positive dims, a positive block size for
// DRA2, and a data region that fits in an int64 and in the file.
func FuzzParseHeader(f *testing.F) {
	f.Add(append(draHeader([]int64{3, 2}, 4), make([]byte, 48)...))
	f.Add(append(draHeader([]int64{5}, 0), make([]byte, 40)...))
	f.Add(draHeader(nil, 1))
	f.Add([]byte("DRA2 but truncated"))
	for _, dims := range overflowingDims {
		f.Add(draHeader(dims, DefaultBlockElems))
		f.Add(draHeader(dims, 0))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dims, blockElems, legacy, err := parseHeader(bytes.NewReader(raw), int64(len(raw)), "fuzz.dra")
		if err != nil {
			return
		}
		if len(dims) > 16 {
			t.Fatalf("accepted rank %d", len(dims))
		}
		header := headerSize(len(dims))
		if !legacy {
			header = headerSize2(len(dims))
			if blockElems <= 0 {
				t.Fatalf("accepted block size %d", blockElems)
			}
		}
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
// index of what it took for an empty array. Every header, DRA1 or DRA2
// without a sidecar (both rebuild the index on open), must now fail fast.
func TestOpenRejectsOverflowingDims(t *testing.T) {
	for _, dims := range overflowingDims {
		for _, blockElems := range []int64{0, DefaultBlockElems} {
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
