package disk

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
)

// draMagic2 identifies the DRA2 array format: the magic followed by the
// rank, the dims and the checksum block granularity, all little-endian
// int64, then the raw elements, with a per-block CRC32C index kept in an
// atomically-replaced ".sum" sidecar next to the data file.
var draMagic2 = [8]byte{'D', 'R', 'A', '2', 0, 0, 0, 0}

// sumMagic identifies a DRA2 checksum sidecar: magic, flags, block
// count, the CRC32C per block, and a trailing CRC32C of the sums region
// so index corruption is itself detectable.
var sumMagic = [8]byte{'D', 'R', 'S', '2', 0, 0, 0, 0}

// sumFlagDirty marks a sidecar written as a dirty-epoch marker: data
// writes were in flight after the last sync, so after an unclean
// shutdown the index may be stale relative to the data file. Open
// rebuilds such an index from the file contents (see fileArray.open).
const sumFlagDirty = 1

// formatDRA2 is the manifest's format tag for an array.
const formatDRA2 = "dra2"

// FileStore is a real file-backed array store: each array is one ".dra"
// file under the store's directory — a self-describing header (magic,
// rank, dims, checksum block size) followed by the elements as
// little-endian float64 in row-major order — plus a ".sum" checksum
// sidecar. Arrays persist across store instances: Open finds arrays
// created by earlier runs, and a MANIFEST.json catalogue lets Reopen
// validate what it finds. The store charges the same modelled I/O
// statistics as the simulator, so tests can compare backends, while
// also performing real reads and writes. Section I/O moves in windows of
// up to 32 consecutive checksum blocks the section touches, one ReadAt
// per window: the CRC32C check of every covered block and the data the
// caller gets share those bytes, so a read returns nothing from a block
// that failed verification (on any error the buffer's contents are
// unspecified). A write verifies every window before its first mutation,
// then overlays, re-indexes from memory and writes each window with one
// WriteAt; once a write has put a full window's bytes in the file, the
// kernel starts writing them back, so Sync's fsync finds less left to do.
// On little-endian hosts the elements move between a window and the
// caller's buffer with one copy. Section calls may run concurrently
// (ReadAt/WriteAt are safe on one *os.File; each array's lock orders them
// against its index).
type FileStore struct {
	dir        string
	sl         Ledger
	blockElems int64
	arrays     map[string]*fileArray
	man        *manifest
	// sieves lends section calls their window scratch (sieve.go).
	sieves sievePool
}

// NewFileStore creates a store rooted at dir (created if missing). When
// the directory holds a manifest from a previous instance, every listed
// array is validated against its file header before the store is
// returned, so a reopened store never silently trusts mismatched files.
// Listed arrays whose files were deleted out-of-band are pruned from
// the manifest — deleting a .dra file removes the array, it does not
// brick the store.
func NewFileStore(dir string, d machine.Disk) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		man = &manifest{Arrays: map[string]manifestEntry{}}
	} else {
		pruned, err := validateManifest(dir, man)
		if err != nil {
			return nil, err
		}
		if pruned {
			if err := writeManifest(dir, man); err != nil {
				return nil, err
			}
		}
	}
	return &FileStore{
		dir:        dir,
		sl:         Ledger{d: d},
		blockElems: DefaultBlockElems,
		arrays:     map[string]*fileArray{},
		man:        man,
	}, nil
}

// SetBlockElems overrides the checksum granularity for subsequently
// created arrays (existing arrays keep the granularity recorded in
// their headers). Intended for tests that need multi-block sections on
// tiny arrays.
func (fs *FileStore) SetBlockElems(n int64) {
	if n > 0 {
		fs.blockElems = n
	}
}

type fileArray struct {
	fs         *FileStore
	name       string
	dims       []int64
	n          int64 // total elements
	blockElems int64
	f          *os.File
	fd         uintptr // f's descriptor, taken once for startWriteback
	header     int64   // bytes before the first element

	// mu orders section I/O against the checksum index: writers update
	// data and sums together under the write lock, readers verify and
	// read under the read lock, so a read never observes data and index
	// from different moments.
	mu         sync.RWMutex
	sums       []uint32 // CRC32C per block; authoritative while open
	dirty      bool     // sums changed since the last persisted sidecar
	writebacks int64    // spans store has started writing back
}

// headerSize2 is the length of a DRA2 header: magic, rank, dims and
// block granularity.
func headerSize2(rank int) int64 { return 8 + 8 + int64(rank)*8 + 8 }

// elements returns the element count of positive dims, and false when the
// count, or the file of a header that long holding them, would overflow
// an int64.
func elements(dims []int64, header int64) (int64, bool) {
	n := int64(1)
	for _, d := range dims {
		if d <= 0 || n > math.MaxInt64/d {
			return 0, false
		}
		n *= d
	}
	return n, n <= (math.MaxInt64-header)/8
}

// Create allocates a new zero-filled DRA2 array, failing if the array
// already exists in this store or on disk. The data file, its checksum
// sidecar, and the manifest entry are written in that order, so a crash
// mid-create leaves at worst an unlisted file the manifest ignores.
func (fs *FileStore) Create(name string, dims []int64) (Array, error) {
	if _, ok := fs.arrays[name]; ok {
		return nil, fmt.Errorf("disk: array %q already exists", name)
	}
	path := fs.path(name)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("disk: array file %q already exists", path)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("disk: non-positive dim %d for %q", d, name)
		}
	}
	n, ok := elements(dims, headerSize2(len(dims)))
	if !ok {
		return nil, fmt.Errorf("disk: dims %v of %q overflow an int64 file size", dims, name)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	rank := len(dims)
	hdr := make([]byte, headerSize2(rank))
	copy(hdr, draMagic2[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rank))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(hdr[16+i*8:], uint64(d))
	}
	binary.LittleEndian.PutUint64(hdr[16+rank*8:], uint64(fs.blockElems))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: %w", err)
	}
	if err := f.Truncate(int64(len(hdr)) + n*8); err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: %w", err)
	}
	a := &fileArray{
		fs:         fs,
		name:       name,
		dims:       append([]int64(nil), dims...),
		n:          n,
		blockElems: fs.blockElems,
		f:          f,
		fd:         f.Fd(),
		header:     int64(len(hdr)),
		sums:       freshSums(n, fs.blockElems),
	}
	if err := a.writeSums(0); err != nil {
		f.Close()
		return nil, err
	}
	fs.man.Arrays[name] = manifestEntry{
		Dims:       append([]int64(nil), dims...),
		BlockElems: fs.blockElems,
		Format:     formatDRA2,
	}
	if err := writeManifest(fs.dir, fs.man); err != nil {
		f.Close()
		return nil, err
	}
	fs.arrays[name] = a
	return a, nil
}

// freshSums builds the checksum index of an all-zero array.
func freshSums(n, blockElems int64) []uint32 {
	blocks := blockCount(n, blockElems)
	sums := make([]uint32, blocks)
	if blocks == 0 {
		return sums
	}
	full := zeroCRC(blockElems)
	for b := range sums {
		sums[b] = full
	}
	lo, hi := blockSpan(blocks-1, blockElems, n)
	sums[blocks-1] = zeroCRC(hi - lo)
	return sums
}

// parseHeader reads and validates a DRA2 header from f, returning the
// dims and the checksum block granularity.
func parseHeader(f io.ReaderAt, size int64, path string) (dims []int64, blockElems int64, err error) {
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || magic != draMagic2 {
		return nil, 0, fmt.Errorf("%q is not a DRA file", path)
	}
	var rankBuf [8]byte
	if _, err := f.ReadAt(rankBuf[:], 8); err != nil {
		return nil, 0, fmt.Errorf("%q has a truncated header", path)
	}
	rank := int64(binary.LittleEndian.Uint64(rankBuf[:]))
	if rank < 0 || rank > 16 {
		return nil, 0, fmt.Errorf("%q has implausible rank %d", path, rank)
	}
	dimBuf := make([]byte, rank*8)
	if _, err := f.ReadAt(dimBuf, 16); err != nil {
		return nil, 0, fmt.Errorf("%q has a truncated header", path)
	}
	dims = make([]int64, rank)
	for i := range dims {
		dims[i] = int64(binary.LittleEndian.Uint64(dimBuf[i*8:]))
		if dims[i] <= 0 {
			return nil, 0, fmt.Errorf("%q has non-positive dim", path)
		}
	}
	var beBuf [8]byte
	if _, err := f.ReadAt(beBuf[:], 16+rank*8); err != nil {
		return nil, 0, fmt.Errorf("%q has a truncated header", path)
	}
	blockElems = int64(binary.LittleEndian.Uint64(beBuf[:]))
	if blockElems <= 0 {
		return nil, 0, fmt.Errorf("%q has non-positive checksum block size", path)
	}
	header := headerSize2(len(dims))
	// A wrapped element count would make an empty array of a huge one.
	n, ok := elements(dims, header)
	if !ok {
		return nil, 0, fmt.Errorf("%q has dims %v that overflow an int64 file size", path, dims)
	}
	if header+n*8 > size {
		return nil, 0, fmt.Errorf("%q holds %d bytes, fewer than the %d its dims %v need", path, size, header+n*8, dims)
	}
	return dims, blockElems, nil
}

// fileSize returns the size of an open file.
func fileSize(f *os.File, path string) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("stat %q: %w", path, err)
	}
	return st.Size(), nil
}

// readHeader opens path read-only and parses its DRA header — the
// manifest validator's view of a file it does not want to keep open.
func readHeader(path string) (dims []int64, blockElems int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%q does not exist", path)
	}
	defer f.Close()
	size, err := fileSize(f, path)
	if err != nil {
		return nil, 0, err
	}
	return parseHeader(f, size, path)
}

// Open returns an array created by this store, or opens a ".dra" file
// left by a previous store instance or written outside the store. The
// array loads its checksum sidecar, or rebuilds the index from the data
// when the sidecar is missing or marked dirty by an unclean shutdown. An
// array the manifest does not list is adopted: the next Sync lists it, so
// Reopen validates it.
func (fs *FileStore) Open(name string) (Array, error) {
	if a, ok := fs.arrays[name]; ok {
		return a, nil
	}
	path := fs.path(name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("disk: array %q does not exist", name)
	}
	size, err := fileSize(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: %w", err)
	}
	dims, blockElems, err := parseHeader(f, size, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: %s", err)
	}
	n, _ := elements(dims, 0)
	a := &fileArray{
		fs:         fs,
		name:       name,
		dims:       dims,
		n:          n,
		blockElems: blockElems,
		f:          f,
		fd:         f.Fd(),
		header:     headerSize2(len(dims)),
	}
	if err := a.loadSums(); err != nil {
		f.Close()
		return nil, err
	}
	if _, listed := fs.man.Arrays[name]; !listed {
		a.dirty = true // the next Sync lists the adopted array
	}
	fs.arrays[name] = a
	return a, nil
}

func (fs *FileStore) path(name string) string {
	return filepath.Join(fs.dir, name+".dra")
}

func (fs *FileStore) sumPath(name string) string {
	return filepath.Join(fs.dir, name+".sum")
}

// Stats returns the accumulated (modelled) I/O statistics. Checksum
// verification performs real extra reads but charges nothing: the
// modelled cost must stay identical to the simulator's.
func (fs *FileStore) Stats() Stats { return fs.sl.Snapshot() }

// Integrity returns the lifetime checksum-verification tallies (they
// survive ResetStats; see Ledger).
func (fs *FileStore) Integrity() IntegrityCounts { return fs.sl.integSnapshot() }

// SetMetrics mirrors every subsequent I/O charge into reg (nil detaches).
func (fs *FileStore) SetMetrics(reg *obs.Registry) { fs.sl.SetMetrics(reg) }

// ResetStats zeroes the counters.
func (fs *FileStore) ResetStats() { fs.sl.Reset() }

// Sync makes the store durable and self-consistent: for every array
// with index changes since the last sync, the data file is fsynced
// first and the checksum sidecar is then atomically replaced (marked
// clean), and finally the manifest is rewritten. The ordering matters:
// a crash inside Sync leaves at worst a dirty-marked sidecar, never a
// clean index describing data that had not reached the disk. The
// execution engine calls this at unit barriers (exec.Options.SyncUnits)
// before advancing its checkpoint, so every durable checkpoint is
// backed by a consistent store.
func (fs *FileStore) Sync() error {
	names := make([]string, 0, len(fs.arrays))
	for name := range fs.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := fs.arrays[name]
		a.mu.Lock()
		err := a.syncLocked()
		a.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return writeManifest(fs.dir, fs.man)
}

// syncLocked persists one array's durable state; the caller holds a.mu.
func (a *fileArray) syncLocked() error {
	if !a.dirty {
		return nil
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync %q: %w", a.name, err)
	}
	if err := a.writeSums(0); err != nil {
		return err
	}
	if _, listed := a.fs.man.Arrays[a.name]; !listed {
		// Open adopted the array: list it so Reopen validates it.
		a.fs.man.Arrays[a.name] = manifestEntry{
			Dims:       append([]int64(nil), a.dims...),
			BlockElems: a.blockElems,
			Format:     formatDRA2,
		}
	}
	a.dirty = false
	return nil
}

// Reopen closes the store (syncing its durable state) and constructs a
// fresh one over the same directory, validating the manifest — the hook
// exec.RunResilient uses to discard possibly-wedged file handles after
// a persistent fault. Integrity tallies carry over: they account the
// whole resilient run, not one set of file handles.
func (fs *FileStore) Reopen() (Backend, error) {
	integ := fs.sl.integSnapshot()
	if err := fs.Close(); err != nil {
		return nil, fmt.Errorf("disk: reopen: %w", err)
	}
	nfs, err := NewFileStore(fs.dir, fs.sl.d)
	if err != nil {
		return nil, err
	}
	nfs.sl.integ = integ
	return nfs, nil
}

// Close syncs and closes all array files. No section operation may be
// in flight. A store abandoned without Close models a crash: un-synced
// indices stay marked dirty on disk and are rebuilt on the next Open.
func (fs *FileStore) Close() error {
	first := fs.Sync()
	for _, a := range fs.arrays {
		if err := a.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	fs.arrays = map[string]*fileArray{}
	return first
}

// ArrayNames lists every array file in the store directory, sorted.
func (fs *FileStore) ArrayNames() []string {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, ent := range ents {
		if name, ok := strings.CutSuffix(ent.Name(), ".dra"); ok && !ent.IsDir() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// VerifyArray checks every block checksum of one array against the
// current file contents. It charges no modelled I/O and no verification
// tallies: a scrub is an out-of-band maintenance pass.
func (fs *FileStore) VerifyArray(name string) ([]ScrubDefect, int64, error) {
	aIface, err := fs.Open(name)
	if err != nil {
		return nil, 0, err
	}
	a := aIface.(*fileArray)
	a.mu.RLock()
	defer a.mu.RUnlock()
	var defects []ScrubDefect
	err = a.blockCRCs(func(b int64, crc uint32) {
		if crc != a.sums[b] {
			defects = append(defects, ScrubDefect{Array: name, Block: b, Stored: a.sums[b], Computed: crc})
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("disk: %w", err)
	}
	return defects, int64(len(a.sums)), nil
}

// RebuildChecksums recomputes the array's checksum index from its
// current contents, clearing any defects (the contents become the new
// truth).
func (fs *FileStore) RebuildChecksums(name string) error {
	aIface, err := fs.Open(name)
	if err != nil {
		return err
	}
	a := aIface.(*fileArray)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.rebuildLocked(); err != nil {
		return err
	}
	a.dirty = true
	return nil
}

func (a *fileArray) Name() string  { return a.name }
func (a *fileArray) Dims() []int64 { return append([]int64(nil), a.dims...) }

func (a *fileArray) ReadSection(lo, shape []int64, buf []float64) error {
	n, err := CheckSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("read", a.name, lo, shape, false, err)
	}
	if int64(len(buf)) != n {
		return NewIOError("read", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	s := a.section(lo, shape)
	defer a.fs.sieves.put(s)
	for s.next() {
		if err := s.load(); err != nil {
			return s.settle("read", lo, shape, n, err)
		}
		if s.verify(); s.ie != nil {
			continue // keep tallying the remaining windows; buf is unspecified
		}
		for at, bufOff, k, ok := s.piece(); ok; at, bufOff, k, ok = s.piece() {
			decode(buf[bufOff:bufOff+k], s.raw[at*8:])
		}
	}
	return s.settle("read", lo, shape, n, nil)
}

func (a *fileArray) WriteSection(lo, shape []int64, buf []float64) error {
	n, err := CheckSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	if int64(len(buf)) != n {
		return NewIOError("write", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.section(lo, shape)
	defer a.fs.sieves.put(s)
	// Read-modify-verify: a block only partially covered by this section
	// contributes its surviving bytes to the new checksum — verify every
	// window before the first mutation rather than silently blessing rot
	// into the index.
	windows := 0
	for err == nil && s.next() {
		windows++
		if err = s.load(); err == nil {
			s.verify()
		}
	}
	if err := s.settle("write", lo, shape, n, err); err != nil {
		return err
	}
	if err := a.markDirtyLocked(); err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	s.rewind()
	// A one-window section's file bytes are still in the scratch.
	if err := s.store(buf, n, windows == 1); err != nil {
		return wrapIO("write", a.name, lo, shape, transientOS(err), err)
	}
	return nil
}

// markDirtyLocked persists a dirty-epoch marker before the first data
// mutation after a sync: should the process die before the next Sync,
// Open sees the marker and rebuilds the index from the surviving data
// instead of trusting a stale one. The caller holds a.mu.
func (a *fileArray) markDirtyLocked() error {
	if a.dirty {
		return nil
	}
	if err := a.writeSums(sumFlagDirty); err != nil {
		return err
	}
	a.dirty = true
	return nil
}

// rebuildLocked recomputes the whole checksum index from the file
// contents. The caller holds a.mu (or has exclusive access).
func (a *fileArray) rebuildLocked() error {
	sums := make([]uint32, blockCount(a.n, a.blockElems))
	if err := a.blockCRCs(func(b int64, crc uint32) { sums[b] = crc }); err != nil {
		return fmt.Errorf("disk: checksum %q: %w", a.name, err)
	}
	a.sums = sums
	return nil
}

// writeSums atomically replaces the array's checksum sidecar.
func (a *fileArray) writeSums(flags uint64) error {
	if err := atomicWrite(a.fs.sumPath(a.name), encodeSums(a.sums, flags)); err != nil {
		return fmt.Errorf("disk: checksum sidecar %q: %w", a.name, err)
	}
	return nil
}

// loadSums loads the checksum sidecar of a DRA2 array. A missing
// sidecar or a dirty-epoch marker means the last shutdown was unclean:
// the index is rebuilt from the data file (post-checkpoint blocks may
// be torn, but the resume discipline rewrites them before reading). A
// present-but-corrupt sidecar is an error — the atomic replacement
// discipline never produces one.
func (a *fileArray) loadSums() error {
	raw, err := os.ReadFile(a.fs.sumPath(a.name))
	if os.IsNotExist(err) {
		if err := a.rebuildLocked(); err != nil {
			return err
		}
		a.dirty = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("disk: checksum sidecar %q: %w", a.name, err)
	}
	sums, dirty, derr := decodeSums(raw, blockCount(a.n, a.blockElems))
	if derr != nil {
		return fmt.Errorf("disk: checksum sidecar for %q is corrupt", a.name)
	}
	if dirty {
		if err := a.rebuildLocked(); err != nil {
			return err
		}
		a.dirty = true
		return nil
	}
	a.sums = sums
	return nil
}

// FlipBit flips one bit of the stored element at flat offset elem,
// beneath the checksum index — bit rot as the fault injector models it.
// The index is deliberately left untouched, so the next verified read
// covering the block detects the damage.
func (a *fileArray) FlipBit(elem int64, bit uint) error {
	if elem < 0 || elem >= a.n || bit > 63 {
		return fmt.Errorf("disk: flip-bit target out of range for %q", a.name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var raw [8]byte
	if _, err := a.f.ReadAt(raw[:], a.header+elem*8); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	v := binary.LittleEndian.Uint64(raw[:])
	binary.LittleEndian.PutUint64(raw[:], v^(1<<bit))
	if _, err := a.f.WriteAt(raw[:], a.header+elem*8); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	return nil
}

// WriteSectionSilent performs a write that lies about its outcome: the
// operation is charged and the checksum index advances as if the write
// fully succeeded, but the medium keeps the previous bytes — all of
// them (SilentLost) or everything past the leading half of the rows
// (SilentTorn). The next verified read over the damage detects the
// mismatch.
func (a *fileArray) WriteSectionSilent(lo, shape []int64, buf []float64, mode SilentMode) error {
	n, err := CheckSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	if int64(len(buf)) != n {
		return NewIOError("write", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	a.fs.sl.Charge(a.name, true, n*8, 0)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.markDirtyLocked(); err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	keep := int64(0) // packed elements that genuinely persist
	if mode == SilentTorn {
		keep = silentPrefixElems(shape)
	}
	// Indexed as if the whole write succeeded; only the prefix is written.
	s := a.section(lo, shape)
	defer a.fs.sieves.put(s)
	if err := s.store(buf, keep, false); err != nil {
		return wrapIO("write", a.name, lo, shape, transientOS(err), err)
	}
	return nil
}
