package disk

import (
	"encoding/binary"
	"math"
	"sync"
	"unsafe"
)

// This file is the windowed reader behind every FileStore data path
// (section reads and writes, silent writes, scrub, index rebuild). A
// row-major section is, on disk, a sequence of contiguous runs at
// increasing offsets, and the checksum blocks those runs touch come in
// stretches of consecutive ordinals. A sieve walks the runs once, cuts the
// touched blocks into windows of at most sieveBlocks consecutive blocks,
// and moves each window with one ReadAt/WriteAt through a pooled scratch
// buffer. The checksum check, the decode into the caller's buffer, the
// overlay of a write and its re-index all work on those same bytes, where
// the run-at-a-time path paid one syscall per run plus a separate read of
// every covering block. On a little-endian host the bytes move between a
// window and the caller's float64s with one copy (see encode).
//
// A write that has put at least one full window's bytes in the file
// starts the kernel's writeback of them at once (startWriteback), so the
// fsync in Sync or Close waits only for what is left. Smaller writes,
// which plans rewrite, stay in the page cache.

// sieveBlocks caps a window at 32 checksum blocks: 1 MiB of scratch at
// DefaultBlockElems. A window never spans a block the section does not
// touch, so the verified block set is exactly the covering one; holding
// a multi-MB section's whole extent instead is no faster and costs
// resident memory.
const sieveBlocks = 32

// sieveFree bounds the sieves a store keeps between calls. Every caller in
// this module makes one section call at a time: exec runs staging, plan
// steps, init passes and output fetches on the run's goroutine under both
// schedules, the ring runs its sub-operations in turn on the caller's
// goroutine, and the health scrub ticks at exec's unit boundaries. So one
// kept sieve serves them all without reallocating. The store still takes
// concurrent calls; each extra one allocates its own sieve and drops it
// afterwards.
const sieveFree = 1

// runCursor walks a section's contiguous runs (along the last dimension)
// in row-major order. skip counts the elements of the current run that
// earlier windows consumed, so a run may straddle two windows.
type runCursor struct {
	strides, shape []int64 // of the leading rank-1 dims
	idx            []int64 // position along the leading dims
	off, bufOff    int64   // flat and packed offsets of the current run
	run, left      int64   // run length; runs left, the current one included
	skip           int64
}

// at returns the flat offset of the cursor's next unconsumed element.
func (c *runCursor) at() int64 { return c.off + c.skip }

// end returns the flat offset just past the current run.
func (c *runCursor) end() int64 { return c.off + c.run }

func (c *runCursor) advance() {
	c.left--
	c.bufOff += c.run
	c.skip = 0
	if c.left == 0 {
		return
	}
	for d := len(c.idx) - 1; d >= 0; d-- {
		c.idx[d]++
		c.off += c.strides[d]
		if c.idx[d] < c.shape[d] {
			return
		}
		c.off -= c.shape[d] * c.strides[d]
		c.idx[d] = 0
	}
}

// set copies o's position into c, keeping c's own index storage.
func (c *runCursor) set(o *runCursor) {
	idx := c.idx
	*c = *o
	c.idx = idx
	copy(c.idx, o.idx)
}

// sieve is one call's window scratch over one array. ahead runs one
// window in front of cur: next scans ahead over the runs that fall in the
// new window, piece then walks cur over the same runs.
type sieve struct {
	a    *fileArray
	raw  []byte  // the window's bytes
	ints []int64 // backing store of the cursors' slices

	start, cur, ahead runCursor

	b0, b1  int64 // current window: blocks [b0, b1)
	lo, hi  int64 // and elements [lo, hi)
	covered int64 // section elements inside the window

	checked int64           // blocks verified
	ie      *IntegrityError // first mismatch; Blocks counts them all
}

// sievePool lends each section call its own sieve, so concurrent readers
// never share scratch, and keeps a few for reuse: a section call
// allocates nothing per run or per window.
type sievePool struct {
	mu   sync.Mutex
	free []*sieve
}

func (p *sievePool) get(a *fileArray, dims, lo, shape []int64) *sieve {
	var s *sieve
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		s, p.free = p.free[k-1], p.free[:k-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = new(sieve)
	}
	// The largest window this array can have. Multiplying the block count
	// down first keeps a header's outsized block size from overflowing.
	need := min(sieveBlocks, blockCount(a.n, a.blockElems)) * a.blockElems
	if need = min(need, a.n) * 8; int64(cap(s.raw)) < need {
		s.raw = make([]byte, need)
	}
	s.a, s.checked, s.ie = a, 0, nil
	s.init(dims, lo, shape)
	return s
}

func (p *sievePool) put(s *sieve) {
	s.a, s.ie = nil, nil
	p.mu.Lock()
	if len(p.free) < sieveFree {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// section lends a sieve over the section [lo, lo+shape).
func (a *fileArray) section(lo, shape []int64) *sieve {
	return a.fs.sieves.get(a, a.dims, lo, shape)
}

// blockCRCs hands fn the CRC32C of every block of the array as the file
// holds it, reading the whole array as one flat run, window by window —
// the scrub and index-rebuild scan. The caller holds a.mu (or has
// exclusive access).
func (a *fileArray) blockCRCs(fn func(b int64, crc uint32)) error {
	flat := []int64{a.n}
	s := a.fs.sieves.get(a, flat, []int64{0}, flat)
	defer a.fs.sieves.put(s)
	for s.next() {
		if err := s.load(); err != nil {
			return err
		}
		for b := s.b0; b < s.b1; b++ {
			fn(b, crcBytes(s.block(b)))
		}
	}
	return nil
}

// init positions the sieve before the first window of [lo, lo+shape) in
// an array of the given dims.
func (s *sieve) init(dims, lo, shape []int64) {
	k := max(len(dims)-1, 0) // leading dims
	if cap(s.ints) < 4*k {
		s.ints = make([]int64, 4*k)
	}
	ints := s.ints[:4*k]
	clear(ints)
	strides, idx := ints[:k], ints[k:2*k]
	s.cur.idx, s.ahead.idx = ints[2*k:3*k], ints[3*k:]
	s.start = runCursor{strides: strides, idx: idx, run: 1, left: 1}
	if len(dims) > 0 {
		stride, off := dims[k], lo[k]
		for d := k - 1; d >= 0; d-- {
			strides[d] = stride
			off += lo[d] * stride
			stride *= dims[d]
			s.start.left *= shape[d]
		}
		s.start.shape, s.start.off, s.start.run = shape[:k], off, shape[k]
		if s.start.run == 0 {
			s.start.left = 0 // an empty section has no window
		}
	}
	s.rewind()
}

// rewind restarts the window walk at the section's first run.
func (s *sieve) rewind() { s.ahead.set(&s.start) }

// next moves to the section's next window, reporting false past the
// last: from the first unconsumed element, the longest stretch of
// consecutive touched blocks, capped at sieveBlocks.
func (s *sieve) next() bool {
	s.cur.set(&s.ahead)
	c := &s.ahead
	if c.left == 0 {
		return false
	}
	be, n := s.a.blockElems, s.a.n
	s.b0 = c.at() / be
	limit := min(s.b0+sieveBlocks, blockCount(n, be))
	limitHi := min(limit*be, n)
	end, covered := s.b0, int64(0)
	for c.left > 0 {
		at := c.at()
		if b := at / be; b > end || b >= limit {
			break // an untouched block, or a full window
		}
		if c.end() > limitHi {
			covered += limitHi - at
			c.skip = limitHi - c.off // the rest opens the next window
			end = limit
			break
		}
		covered += c.end() - at
		end = max(end, (c.end()-1)/be+1)
		c.advance()
	}
	s.b1, s.covered = end, covered
	s.lo, s.hi = s.b0*be, min(end*be, n)
	return true
}

// piece returns the next stretch of the section inside the current
// window: its element offset into the window, its offset into the
// caller's packed buffer, and its length.
func (s *sieve) piece() (at, bufOff, k int64, ok bool) {
	c := &s.cur
	if c.left == 0 || c.at() >= s.hi {
		return 0, 0, 0, false
	}
	at, bufOff = c.at(), c.bufOff+c.skip
	end := min(c.end(), s.hi)
	if end < c.end() {
		c.skip = end - c.off
	} else {
		c.advance()
	}
	return at - s.lo, bufOff, end - at, true
}

// bytes returns the current window's bytes.
func (s *sieve) bytes() []byte { return s.raw[:(s.hi-s.lo)*8] }

// block returns the bytes of block b, which lies in the current window.
func (s *sieve) block(b int64) []byte {
	lo, hi := blockSpan(b, s.a.blockElems, s.a.n)
	return s.raw[(lo-s.lo)*8 : (hi-s.lo)*8]
}

// load reads the current window from the file with one ReadAt.
func (s *sieve) load() error {
	_, err := s.a.f.ReadAt(s.bytes(), s.a.header+s.lo*8)
	return err
}

// verify checks every block of the loaded window against the index.
func (s *sieve) verify() {
	for b := s.b0; b < s.b1; b++ {
		crc, stored := crcBytes(s.block(b)), s.a.sums[b]
		s.checked++
		if crc != stored {
			if s.ie == nil {
				s.ie = &IntegrityError{Array: s.a.name, Block: b, Stored: stored, Computed: crc}
			}
			s.ie.Blocks++
		}
	}
}

// settle charges the section operation of n elements and the blocks it
// verified in one ledger call, and returns the section's error: err, an
// I/O failure retryable when transient, else the checksum mismatch,
// never retryable because rotten data re-reads identically.
func (s *sieve) settle(op string, lo, shape []int64, n int64, err error) error {
	a := s.a
	a.fs.sl.Charge(a.name, op == "write", n*8, s.checked)
	if err != nil {
		return wrapIO(op, a.name, lo, shape, transientOS(err), err)
	}
	if s.ie != nil {
		a.fs.sl.chargeDetect(a.name, s.ie.Blocks)
		return wrapIO(op, a.name, lo, shape, false, s.ie)
	}
	return nil
}

// store writes buf over the section, window by window: the file bytes
// under the window (read only if the section leaves part of it
// uncovered and loaded does not say raw already holds it), the section's
// bytes overlaid, one WriteAt, and every block of the window re-indexed
// from memory. Only the first keep packed elements reach the file; the
// index advances as if all had. Each time the bytes written since the
// last writeback reach a full window, the span they lie in starts its
// writeback. The caller holds a.mu.
func (s *sieve) store(buf []float64, keep int64, loaded bool) error {
	a := s.a
	full := a.windowBytes()
	var from, to, pending int64 // file span and bytes written since the last writeback
	for s.next() {
		if !loaded && s.covered < s.hi-s.lo {
			if err := s.load(); err != nil {
				return err
			}
		}
		loaded = false
		persist := int64(0) // window elements up to the last that persists
		for at, bufOff, k, ok := s.piece(); ok; at, bufOff, k, ok = s.piece() {
			encode(s.raw[at*8:], buf[bufOff:bufOff+k])
			if bufOff < keep {
				persist = at + min(k, keep-bufOff)
			}
		}
		if persist > 0 {
			off := a.header + s.lo*8
			if _, err := a.f.WriteAt(s.raw[:persist*8], off); err != nil {
				return err
			}
			if pending == 0 {
				from = off
			}
			to, pending = off+persist*8, pending+persist*8
			if pending >= full {
				startWriteback(a.fd, from, to-from)
				a.writebacks++
				pending = 0
			}
		}
		for b := s.b0; b < s.b1; b++ {
			a.sums[b] = crcBytes(s.block(b))
		}
	}
	return nil
}

// windowBytes returns the bytes of a full window of a's blocks: the
// write-back threshold of store. A header's outsized block size saturates
// it rather than overflowing.
func (a *fileArray) windowBytes() int64 {
	if a.blockElems > math.MaxInt64/(sieveBlocks*8) {
		return math.MaxInt64
	}
	return sieveBlocks * a.blockElems * 8
}

// littleEndian reports whether this host lays out a float64 in memory as
// the file format does, so a window's bytes are the caller's float64s.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decode unpacks little-endian float64s from src into dst.
func decode(dst []float64, src []byte) {
	src = src[:len(dst)*8]
	if littleEndian {
		copy(bytesOf(dst), src)
		return
	}
	decodeLoop(dst, src)
}

// encode packs src into dst as little-endian float64s.
func encode(dst []byte, src []float64) {
	dst = dst[:len(src)*8]
	if littleEndian {
		copy(dst, bytesOf(src))
		return
	}
	encodeLoop(dst, src)
}

// bytesOf views v's float64s as the bytes they occupy in memory.
func bytesOf(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// decodeLoop is decode element by element: the big-endian path, and the
// tests' oracle for the copy.
func decodeLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// encodeLoop is encode element by element: the big-endian path, and the
// tests' oracle for the copy.
func encodeLoop(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}
