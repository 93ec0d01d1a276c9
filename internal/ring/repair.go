package ring

// Cross-replica self-healing. The Store implements disk.IntegrityStore
// (so disk.Scrub sweeps a ring like any single backend) and
// disk.ReplicaHealer: a block whose checksum fails heals by copying from
// a healthy replica BEFORE anything falls back to the execution engine's
// recompute-from-producer path.
//
// HealArray works in three phases, in this order for a reason:
//
//  1. Probe: every replica copy of every placement block is classified
//     (healthy / rotten / stale / unreachable) before anything is
//     modified. Probing first matters: blessing a shard's checksum index
//     rewrites it over the *current* bytes, so any rot not yet
//     classified would be silently accepted as truth.
//  2. Bless: each shard holding at least one rotten copy gets its
//     checksum index rebuilt once. This is required before copying,
//     because both backends verify a block's surviving bytes before a
//     partial overwrite (read-modify-verify) — writing good data over
//     unblessed rot would itself fail with an IntegrityError.
//  3. Copy: every defective copy is rewritten from the first healthy
//     replica, clearing stale flags as copies converge. A block with no
//     healthy replica at all is counted as unhealed and left to the
//     recompute path.
//
// Repair I/O goes to the shards' base backends, beneath any fault
// injector: it models an out-of-band maintenance pass on the medium,
// like Scrub and RebuildChecksums. The data movement is still charged to
// the shards' modelled I/O statistics (it never touches the front door,
// so the execution engine's span accounting is unaffected).

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/obs"
)

// shardStore is a shard's base store, beneath any fault injector: the
// first backend along the shard's wrapper chain that keeps integrity
// metadata.
type shardStore interface {
	disk.Backend
	disk.IntegrityStore
}

// openBase opens the shard's copy of the array on its base store.
func openBase(sh *shard, name string) (disk.Array, shardStore, error) {
	base, ok := disk.Find[shardStore](sh.be)
	if !ok {
		return nil, nil, fmt.Errorf("ring: shard %d does not maintain integrity metadata", sh.id)
	}
	arr, err := base.Open(name)
	if err != nil {
		return nil, nil, fmt.Errorf("ring: shard %d: %w", sh.id, err)
	}
	return arr, base, nil
}

// ArrayNames lists the ring's arrays in sorted order.
func (s *Store) ArrayNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrayNamesLocked()
}

// VerifyArray sweeps every live shard's copy of the array, returning the
// union of their checksum defects plus one defect per stale replica copy
// (a copy that missed a write disagrees with the block's current truth
// even though its own checksums pass). Shard defects carry the shard's
// checksum-block ordinals; stale defects carry the ring's placement-block
// ordinals — both identify the array region to heal, and HealArray
// resolves either kind. Like the single-backend scrubs it charges no
// modelled I/O.
func (s *Store) VerifyArray(name string) ([]disk.ScrubDefect, int64, error) {
	s.mu.Lock()
	a, ok := s.arrays[name]
	shards := s.liveShards()
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("ring: array %q does not exist", name)
	}
	var (
		defects []disk.ScrubDefect
		blocks  int64
	)
	for _, sh := range shards {
		ist, ok := disk.Find[disk.IntegrityStore](sh.be)
		if !ok {
			return nil, 0, fmt.Errorf("ring: shard %d does not maintain integrity metadata", sh.id)
		}
		d, b, err := ist.VerifyArray(name)
		if err != nil {
			return nil, 0, fmt.Errorf("ring: shard %d: %w", sh.id, err)
		}
		defects = append(defects, d...)
		blocks += b
	}
	a.amu.Lock()
	staleBlocks := make([]int64, 0, len(a.stale))
	staleCount := make(map[int64]int, len(a.stale))
	for b, set := range a.stale {
		if len(set) > 0 {
			staleBlocks = append(staleBlocks, b)
			staleCount[b] = len(set)
		}
	}
	a.amu.Unlock()
	sort.Slice(staleBlocks, func(i, j int) bool { return staleBlocks[i] < staleBlocks[j] })
	for _, b := range staleBlocks {
		for i := 0; i < staleCount[b]; i++ {
			defects = append(defects, disk.ScrubDefect{Array: name, Block: b})
		}
	}
	return defects, blocks, nil
}

// RebuildChecksums accepts every live shard's current copy of the array
// as the new truth and drops the array's stale flags — the last-resort
// blessing disk.Scrub falls back to when no healthy replica is left.
func (s *Store) RebuildChecksums(name string) error {
	s.mu.Lock()
	a, ok := s.arrays[name]
	shards := s.liveShards()
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("ring: array %q does not exist", name)
	}
	for _, sh := range shards {
		ist, ok := disk.Find[disk.IntegrityStore](sh.be)
		if !ok {
			return fmt.Errorf("ring: shard %d does not maintain integrity metadata", sh.id)
		}
		if err := ist.RebuildChecksums(name); err != nil {
			return fmt.Errorf("ring: shard %d: %w", sh.id, err)
		}
	}
	a.amu.Lock()
	a.stale = map[int64]map[int]bool{}
	a.amu.Unlock()
	s.recountDegraded()
	return nil
}

// liveShards returns the live shards in id order. Callers hold s.mu.
func (s *Store) liveShards() []*shard {
	out := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.live {
			out = append(out, sh)
		}
	}
	return out
}

// copyHealth classifies one replica copy during the probe phase.
type copyHealth int

const (
	copyHealthy     copyHealth = iota
	copyRotten                 // failed checksum verification
	copyStale                  // flagged by a degraded write
	copyUnreachable            // the base medium itself errored
)

// HealArray is the ring's cross-replica repair pass for one array —
// disk.ReplicaHealer. copied counts replica copies rebuilt from a
// healthy peer; unhealed counts placement blocks left defective because
// no candidate held a healthy copy (only recompute-from-producer can
// restore those).
func (s *Store) HealArray(name string) (copied, unhealed int64, err error) {
	s.mu.Lock()
	a, ok := s.arrays[name]
	shards := s.liveShards()
	s.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("ring: array %q does not exist", name)
	}

	// Resolve each live shard's base store and unwrapped array view.
	bases := map[int]disk.Array{}
	ists := map[int]disk.IntegrityStore{}
	for _, sh := range shards {
		arr, ist, err := openBase(sh, name)
		if err != nil {
			return 0, 0, err
		}
		bases[sh.id] = arr
		ists[sh.id] = ist
	}

	// Phase 1: probe every replica copy of every block, modifying
	// nothing. A verified read of the block's exact section classifies
	// the copy; nil buffers skip the data movement in data mode.
	health := make([]map[int]copyHealth, a.blocks)
	dirtyShard := map[int]bool{}
	for b := int64(0); b < a.blocks; b++ {
		health[b] = map[int]copyHealth{}
		blo, bshape := a.blockSection(b)
		for _, id := range a.candidates(b) {
			arr, ok := bases[id]
			if !ok { // candidate shard drained since placement
				health[b][id] = copyUnreachable
				continue
			}
			if a.isStale(b, id) {
				health[b][id] = copyStale
				continue
			}
			switch perr := arr.ReadSection(blo, bshape, nil); {
			case perr == nil:
				health[b][id] = copyHealthy
			case disk.IsIntegrity(perr):
				health[b][id] = copyRotten
				dirtyShard[id] = true
			default:
				health[b][id] = copyUnreachable
			}
		}
	}

	// Phase 2: bless each shard holding rot, once, so good data can be
	// written over the rotten regions (both backends verify surviving
	// bytes before partial overwrites). Every copy was already
	// classified above, so the blessing hides nothing.
	dirty := make([]int, 0, len(dirtyShard))
	for id := range dirtyShard {
		dirty = append(dirty, id)
	}
	sort.Ints(dirty)
	for _, id := range dirty {
		if err := ists[id].RebuildChecksums(name); err != nil {
			return copied, unhealed, fmt.Errorf("ring: bless shard %d: %w", id, err)
		}
	}

	// Phase 3: rewrite every defective copy from the first healthy
	// replica in ring order.
	buf := a.blockBuf()
	for b := int64(0); b < a.blocks; b++ {
		cands := a.candidates(b)
		var sources, targets []int
		for _, id := range cands {
			if health[b][id] == copyHealthy {
				sources = append(sources, id)
			} else {
				targets = append(targets, id)
			}
		}
		if len(targets) == 0 {
			continue
		}
		if len(sources) == 0 {
			unhealed++
			s.noteRepairUnhealed(name, b, cands)
			continue
		}
		blo, bshape := a.blockSection(b)
		n := int64(1)
		for _, d := range bshape {
			n *= d
		}
		var bbuf []float64
		if s.opt.WithData {
			bbuf = buf[:n]
		}
		var src int
		var rerr error
		for i, sid := range sources {
			src = sid
			rerr = bases[sid].ReadSection(blo, bshape, bbuf)
			if rerr == nil {
				break
			}
			if i == len(sources)-1 {
				unhealed++
				s.noteRepairUnhealed(name, b, cands)
			}
		}
		if rerr != nil {
			continue
		}
		for _, id := range targets {
			arr, ok := bases[id]
			if !ok {
				continue
			}
			if werr := arr.WriteSection(blo, bshape, bbuf); werr != nil {
				a.markStale(b, id)
				if s.log.Enabled(obs.LevelWarn) {
					s.log.Warn("ring", "repair.failed",
						obs.F("array", name),
						obs.F("block", b),
						obs.F("shard", id),
						obs.F("error", werr))
				}
				continue
			}
			a.clearStale(b, id)
			copied++
			s.noteRepairCopied(name, b, src, id)
		}
	}
	s.recountDegraded()
	if s.log.Enabled(obs.LevelInfo) {
		s.log.Info("ring", "repair.done",
			obs.F("array", name),
			obs.F("copied", copied),
			obs.F("unhealed", unhealed))
	}
	return copied, unhealed, nil
}

// noteRepairCopied records one replica copy rebuilt from a healthy peer.
func (s *Store) noteRepairCopied(array string, block int64, from, to int) {
	s.fmu.Lock()
	c := s.mRepairCopied
	s.fmu.Unlock()
	c.Inc()
	if s.log.Enabled(obs.LevelInfo) {
		s.log.Info("ring", "repair.copied",
			obs.F("array", array),
			obs.F("block", block),
			obs.F("from", from),
			obs.F("to", to))
	}
}

// noteRepairUnhealed records one block no healthy replica could restore.
func (s *Store) noteRepairUnhealed(array string, block int64, cands []int) {
	s.fmu.Lock()
	c := s.mRepairRecompute
	s.fmu.Unlock()
	c.Inc()
	if s.log.Enabled(obs.LevelWarn) {
		s.log.Warn("ring", "repair.unhealed",
			obs.F("array", array),
			obs.F("block", block),
			obs.F("replicas", fmt.Sprintf("%v", cands)))
	}
}
