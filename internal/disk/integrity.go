package disk

// This file is the backend-independent half of the data-integrity layer:
// the typed IntegrityError that joins the IOError taxonomy as
// non-retryable, the CRC32C block-checksum helpers both backends share,
// the capability interfaces the rest of the stack probes (Syncer,
// Reopener, IntegrityStore, and the silent-corruption hooks the fault
// injector uses), and the Scrub sweep. The file-backed DRA2 format lives
// in file.go; the simulator's shadow index in sim.go.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"repro/internal/obs"
)

// castagnoli is the CRC32C polynomial table; CRC32C is the standard
// storage-integrity checksum (iSCSI, ext4, Btrfs) and is hardware
// accelerated by the stdlib on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockElems is the checksum granularity: elements per checksummed
// block (4096 elements = 32 KiB of float64). It deliberately sits at or
// below the NLP model's minimum transfer size (machine.Disk.MinBlock), so
// a verified section read never spans fewer than one whole block of the
// sections the solver emits; tests shrink it to exercise multi-block
// sections on tiny arrays.
const DefaultBlockElems = 4096

// IntegrityError reports a checksum-verification failure: stored data
// that no longer matches the checksum recorded when it was written. It
// is always wrapped in a non-retryable *IOError by the backends —
// re-reading a rotten block returns the same bytes, so the retry layer
// must not absorb it; recovery has to re-create the data instead
// (exec.RunResilient's heal path).
type IntegrityError struct {
	Array string // array name
	Block int64  // ordinal of the first failing checksum block
	// Blocks is the number of failing blocks in the verified range
	// (consecutive ordinals starting at Block need not all fail; this is
	// a count, with Block the first).
	Blocks int64
	// Stored and Computed are the recorded and recomputed CRC32C of the
	// first failing block.
	Stored, Computed uint32
}

func (e *IntegrityError) Error() string {
	if e.Blocks > 1 {
		return fmt.Sprintf("disk: integrity: array %q: %d block(s) failed checksum verification starting at block %d (stored %08x, computed %08x)",
			e.Array, e.Blocks, e.Block, e.Stored, e.Computed)
	}
	return fmt.Sprintf("disk: integrity: array %q block %d failed checksum verification (stored %08x, computed %08x)",
		e.Array, e.Block, e.Stored, e.Computed)
}

// IsIntegrity reports whether err wraps an *IntegrityError — a verified
// read failure that retrying in place cannot fix.
func IsIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// Syncer is implemented by backends with durable state. Sync flushes
// everything a crash would otherwise lose: dirty checksum indices
// (written atomically via write-temp + rename), the data files (fsync),
// and the store manifest. The execution engine calls it at unit barriers
// under exec.Options.SyncUnits, which bounds post-crash loss to the
// current work unit.
type Syncer interface {
	Sync() error
}

// Reopener is implemented by backends that can rebuild themselves over
// their persistent state — the hook exec.RunResilient probes when
// RecoveryOptions.Reopen is unset. FileStore reopens its directory
// (validating the manifest); fault.Injector forwards to its inner
// backend while keeping the fault schedule running.
type Reopener interface {
	Reopen() (Backend, error)
}

// InnerBackend is implemented by wrapping backends (fault.Injector,
// trace.Recorder) to expose the backend they decorate, so Find's probes
// reach the real store through any wrapper chain.
type InnerBackend interface {
	Inner() Backend
}

// Find returns the first backend along be's wrapper chain (be, then each
// InnerBackend's Inner) that implements T.
func Find[T any](be Backend) (T, bool) {
	for be != nil {
		if t, ok := be.(T); ok {
			return t, true
		}
		ib, ok := be.(InnerBackend)
		if !ok {
			break
		}
		be = ib.Inner()
	}
	var zero T
	return zero, false
}

// SyncBackend flushes the first Syncer found along be's wrapper chain.
// Backends without durable state are a successful no-op.
func SyncBackend(be Backend) error {
	if s, ok := Find[Syncer](be); ok {
		return s.Sync()
	}
	return nil
}

// SilentMode selects how a write lies about its outcome.
type SilentMode int

const (
	// SilentLost acknowledges the write and advances the checksum index,
	// but the medium keeps the previous bytes — a lost write.
	SilentLost SilentMode = iota
	// SilentTorn persists only the leading half of the section's rows
	// while acknowledging (and indexing) the whole write — a torn write
	// that returned success.
	SilentTorn
)

// SilentWriter is implemented by backend arrays that can model silent
// write corruption beneath their own checksum layer, so the fault
// injector's lies are detectable by the very backend that told them.
// Both backends leave the same outcome: stats charged and checksums
// advanced as for a full write, while the stored data past the persisted
// prefix keeps its previous values.
type SilentWriter interface {
	WriteSectionSilent(lo, shape []int64, buf []float64, mode SilentMode) error
}

// BitFlipper is implemented by backend arrays that can flip one bit of
// a stored element beneath the checksum layer — bit rot. elem is the
// row-major flat element offset; bit selects the bit of its 64-bit
// little-endian encoding.
type BitFlipper interface {
	FlipBit(elem int64, bit uint) error
}

// silentPrefixElems returns how many leading packed elements of a
// section survive a SilentTorn write: half the rows along the leading
// dimension, matching the injector's erroring torn-write semantics.
func silentPrefixElems(shape []int64) int64 {
	if len(shape) == 0 || shape[0] < 2 {
		return 0
	}
	n := shape[0] / 2
	for _, d := range shape[1:] {
		n *= d
	}
	return n
}

// IntegrityCounts tallies a backend's checksum-verification activity.
type IntegrityCounts struct {
	// VerifiedBlocks counts block checksums verified on section reads.
	VerifiedBlocks int64
	// Detected counts blocks that failed verification.
	Detected int64
}

// Metric names for the integrity layer. Per-array variants append
// "/<array name>".
const (
	MetricIntegrityBlocks   = "disk.integrity.blocks"
	MetricIntegrityDetected = "disk.integrity.detected"
	MetricScrubBlocks       = "disk.scrub.blocks"
	MetricScrubDefects      = "disk.scrub.defects"
	MetricScrubRepaired     = "disk.scrub.repaired"
	// MetricScrubDefectsByArray is a labeled counter family breaking
	// the defect tally down per array (label "array").
	MetricScrubDefectsByArray = "disk.scrub.defects.by_array"
)

// ScrubDefect is one block whose stored checksum disagrees with its
// current contents.
type ScrubDefect struct {
	Array            string `json:"array"`
	Block            int64  `json:"block"`
	Stored, Computed uint32 `json:"-"`
}

// ScrubReport is the outcome of one Scrub sweep.
type ScrubReport struct {
	// Arrays and Blocks count what the sweep covered.
	Arrays int   `json:"arrays"`
	Blocks int64 `json:"blocks"`
	// Defects lists every block that failed verification.
	Defects []ScrubDefect `json:"defects,omitempty"`
	// Repaired counts defective blocks whose checksums were rebuilt to
	// accept the current contents (ScrubOptions.Repair).
	Repaired int64 `json:"repaired,omitempty"`
	// HealedFromReplica counts replica copies rebuilt from a healthy
	// peer by a ReplicaHealer backend — true repairs that restore the
	// original data, as opposed to the Repaired blessing.
	HealedFromReplica int64 `json:"healed_from_replica,omitempty"`
}

// OK reports a defect-free sweep.
func (r *ScrubReport) OK() bool { return len(r.Defects) == 0 }

func (r *ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d array(s), %d block(s), %d defect(s)", r.Arrays, r.Blocks, len(r.Defects))
	if r.HealedFromReplica > 0 {
		fmt.Fprintf(&b, ", %d healed from replica", r.HealedFromReplica)
	}
	if r.Repaired > 0 {
		fmt.Fprintf(&b, ", %d repaired", r.Repaired)
	}
	return b.String()
}

// ScrubOptions tune a Scrub sweep.
type ScrubOptions struct {
	// Repair rebuilds the checksum index of every defective array to
	// accept its current contents — accepting the corruption as the new
	// truth. Use after recovery has re-created the data, or when the
	// original data is gone and a clean baseline is needed.
	Repair bool
	// Metrics, if non-nil, receives scrub progress counters
	// (disk.scrub.blocks / .defects / .repaired) plus the per-array
	// defect breakdown (labeled family disk.scrub.defects.by_array).
	Metrics *obs.Registry
	// Log, if non-nil, receives one scrub.defect event per rotten block
	// and a scrub.done summary (system "disk").
	Log *obs.Log
}

// IntegrityStore is the per-backend scrub surface: both FileStore and
// Sim implement it. Scrub reaches it through wrapper chains via
// InnerBackend.
type IntegrityStore interface {
	// ArrayNames lists the store's arrays in deterministic order.
	ArrayNames() []string
	// VerifyArray checks every block checksum of one array against its
	// current contents, returning the defects and the number of blocks
	// scanned. It does not charge modelled I/O statistics: a scrub is an
	// out-of-band maintenance pass, not part of the plan's I/O.
	VerifyArray(name string) (defects []ScrubDefect, blocks int64, err error)
	// RebuildChecksums recomputes the array's checksum index from its
	// current contents, clearing any defects.
	RebuildChecksums(name string) error
}

// Scrub sweeps every array of the first IntegrityStore along be's
// wrapper chain, verifying all block checksums against the stored data.
// With opt.Repair the defective indices are rebuilt (and, when the store
// is a Syncer, persisted).
func Scrub(be Backend, opt ScrubOptions) (*ScrubReport, error) {
	st, ok := Find[IntegrityStore](be)
	if !ok {
		return nil, fmt.Errorf("disk: backend does not maintain integrity metadata; nothing to scrub")
	}
	rep := &ScrubReport{}
	for _, name := range st.ArrayNames() {
		defects, blocks, healed, err := ScrubArray(be, st, name, opt)
		if err != nil {
			return nil, err
		}
		rep.Arrays++
		rep.Blocks += blocks
		rep.Defects = append(rep.Defects, defects...)
		rep.HealedFromReplica += healed
		if opt.Repair {
			rep.Repaired += int64(len(defects))
		}
	}
	if opt.Repair && rep.Repaired > 0 {
		if err := SyncBackend(be); err != nil {
			return nil, fmt.Errorf("disk: scrub repair sync: %w", err)
		}
	}
	opt.Metrics.Counter(MetricScrubBlocks).Add(rep.Blocks)
	opt.Metrics.Counter(MetricScrubDefects).Add(int64(len(rep.Defects)))
	opt.Metrics.Counter(MetricScrubRepaired).Add(rep.Repaired)
	opt.Log.Info("disk", "scrub.done",
		obs.F("arrays", rep.Arrays),
		obs.F("blocks", rep.Blocks),
		obs.F("defects", len(rep.Defects)),
		obs.F("repaired", rep.Repaired))
	return rep, nil
}

// ScrubArray is one array's scrub, run by Scrub and by health's scheduled
// scrub: it verifies every block checksum of name in st, the
// IntegrityStore along be's chain, and reports each defect to opt.Log and
// opt.Metrics. With opt.Repair it then repairs before anything recomputes:
// a replicated backend (a ReplicaHealer along the chain) first restores
// defective copies from a healthy peer, and only if a block is left that
// no replica restored are the checksums rebuilt over the contents as they
// are. It returns the defects, the blocks scanned and the block copies
// restored from replicas; syncing the repair is the caller's.
func ScrubArray(be Backend, st IntegrityStore, name string, opt ScrubOptions) (defects []ScrubDefect, blocks, healed int64, err error) {
	defects, blocks, err = st.VerifyArray(name)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("disk: scrub %q: %w", name, err)
	}
	for _, d := range defects {
		opt.Log.Warn("disk", "scrub.defect",
			obs.F("array", d.Array),
			obs.F("block", d.Block),
			obs.F("stored", fmt.Sprintf("%08x", d.Stored)),
			obs.F("computed", fmt.Sprintf("%08x", d.Computed)))
	}
	if len(defects) > 0 {
		opt.Metrics.CounterVec(MetricScrubDefectsByArray, "array").
			With(name).Add(int64(len(defects)))
	}
	if !opt.Repair || len(defects) == 0 {
		return defects, blocks, 0, nil
	}
	unhealed := int64(1)
	if h, ok := Find[ReplicaHealer](be); ok {
		if healed, unhealed, err = h.HealArray(name); err != nil {
			return nil, 0, 0, fmt.Errorf("disk: scrub heal %q: %w", name, err)
		}
	}
	if unhealed > 0 {
		if err := st.RebuildChecksums(name); err != nil {
			return nil, 0, 0, fmt.Errorf("disk: scrub repair %q: %w", name, err)
		}
	}
	return defects, blocks, healed, nil
}

// ReplicaHealer is implemented by backends that keep redundant copies of
// their arrays (ring.Store) and can rebuild a defective copy from a
// healthy peer. It is the repair-before-recompute hook: Scrub and the
// execution engine's integrity heal path both try it before blessing
// corruption or recomputing data from its producer.
type ReplicaHealer interface {
	// HealArray restores every defective replica copy of one array from
	// a healthy peer. copied counts copies rebuilt; unhealed counts
	// blocks left defective because no healthy replica existed.
	HealArray(name string) (copied, unhealed int64, err error)
}

// ---------------------------------------------------------------------------
// Shared checksum helpers.

// blockCount returns how many checksum blocks cover n elements.
func blockCount(n, blockElems int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + blockElems - 1) / blockElems
}

// blockSpan returns the element range [lo, hi) of block b of an array
// with n total elements.
func blockSpan(b, blockElems, n int64) (int64, int64) {
	lo := b * blockElems
	hi := lo + blockElems
	if hi > n {
		hi = n
	}
	return lo, hi
}

// crcFloats computes the CRC32C of the little-endian float64 encoding of
// vals — the same bytes FileStore hashes from its data file, so both
// backends agree on every checksum.
func crcFloats(vals []float64) uint32 {
	var scratch [4096]byte
	crc := uint32(0)
	for len(vals) > 0 {
		n := len(vals)
		if n > len(scratch)/8 {
			n = len(scratch) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], math.Float64bits(vals[i]))
		}
		crc = crc32.Update(crc, castagnoli, scratch[:n*8])
		vals = vals[n:]
	}
	return crc
}

// crcBytes computes the CRC32C of raw bytes.
func crcBytes(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// zeroCRC returns the CRC32C of n zero-valued float64s (fresh blocks of
// a newly created array).
func zeroCRC(n int64) uint32 {
	var zeros [4096]byte
	crc := uint32(0)
	for rem := n * 8; rem > 0; {
		c := rem
		if c > int64(len(zeros)) {
			c = int64(len(zeros))
		}
		crc = crc32.Update(crc, castagnoli, zeros[:c])
		rem -= c
	}
	return crc
}

// eachRun visits the contiguous element runs (along the last dimension)
// of a section in row-major order, calling fn with the flat element
// offset into the array, the packed buffer offset, and the run length.
// Offsets are strictly increasing across calls.
func eachRun(dims, lo, shape []int64, fn func(off, bufOff, run int64) error) error {
	rank := len(dims)
	if rank == 0 {
		return fn(0, 0, 1)
	}
	strides := make([]int64, rank)
	s := int64(1)
	for i := rank - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	run := shape[rank-1]
	idx := make([]int64, rank-1)
	bufOff := int64(0)
	for {
		off := lo[rank-1] * strides[rank-1]
		for i := 0; i < rank-1; i++ {
			off += (lo[i] + idx[i]) * strides[i]
		}
		if err := fn(off, bufOff, run); err != nil {
			return err
		}
		bufOff += run
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return nil
		}
	}
}

// FlatOffset returns the row-major flat element offset of lo in an
// array with the given dims — the element coordinate BitFlipper takes.
func FlatOffset(dims, lo []int64) int64 {
	off := int64(0)
	for i := range dims {
		off = off*dims[i] + lo[i]
	}
	return off
}
