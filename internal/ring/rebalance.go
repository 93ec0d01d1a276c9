package ring

// Shard membership changes. AddShard grows the ring by one shard and
// DrainShard retires one; both re-derive every array's block → replica
// assignment over the new live set (recomputing the consistent-hash
// table, or re-placing the fixed Blocked ranges) and move the data the
// new assignment demands. Movement reads the first healthy old
// replica and writes the new one through the shards' base backends, so
// it is charged to the shards' modelled I/O statistics — rebalancing
// cost is part of the modelled cost, which tables.RingStudy measures.

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/health"
	"repro/internal/obs"
)

// RebalanceReport is the accounted outcome of one membership change.
type RebalanceReport struct {
	// Shards is the live shard count after the change.
	Shards int `json:"shards"`
	// BlocksMoved counts replica copies established on their new shard;
	// BytesMoved is their total payload.
	BlocksMoved int64 `json:"blocks_moved"`
	BytesMoved  int64 `json:"bytes_moved"`
	// Unmoved counts copies that could not be established because no
	// healthy source replica existed; they are marked stale instead.
	Unmoved int64 `json:"unmoved,omitempty"`
	// Seconds is the modelled serial data-movement time (one read plus
	// one write per moved copy under the ring's disk model).
	Seconds float64 `json:"seconds"`
}

func (r *RebalanceReport) String() string {
	return fmt.Sprintf("rebalance: %d live shard(s), moved %d block(s) / %d byte(s) in %.3fs modelled",
		r.Shards, r.BlocksMoved, r.BytesMoved, r.Seconds)
}

// AddShard grows the ring by one fresh shard (wrapped by the fault
// schedule when it targets the new index), creates local copies of every
// array on it, and moves the block replicas the updated placement
// assigns.
func (s *Store) AddShard() (*RebalanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ring: store closed")
	}
	id := len(s.shards)
	sh, err := s.newShard(id)
	if err != nil {
		return nil, err
	}
	s.shards = append(s.shards, sh)

	names := s.arrayNamesLocked()
	for _, name := range names {
		a := s.arrays[name]
		la, err := sh.be.Create(name, a.dims)
		if err != nil {
			return nil, fmt.Errorf("ring: shard %d: %w", id, err)
		}
		a.amu.Lock()
		a.locals[id] = la
		a.amu.Unlock()
	}

	rep := &RebalanceReport{}
	if err := s.reassignLocked(names, -1, rep); err != nil {
		return nil, err
	}
	rep.Shards = s.liveCount()
	if s.log.Enabled(obs.LevelInfo) {
		s.log.Info("ring", "rebalance.add",
			obs.F("shard", id),
			obs.F("live", rep.Shards),
			obs.F("moved", rep.BlocksMoved),
			obs.F("bytes", rep.BytesMoved))
	}
	return rep, nil
}

// DrainShard retires shard id: its block replicas move to the shards the
// updated placement assigns, then its backend is closed. Draining below
// the replication factor is refused.
func (s *Store) DrainShard(id int) (*RebalanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ring: store closed")
	}
	if id < 0 || id >= len(s.shards) || !s.shards[id].live {
		return nil, fmt.Errorf("ring: shard %d is not live", id)
	}
	if s.liveCount()-1 < s.opt.Replicas {
		return nil, fmt.Errorf("ring: draining shard %d would leave %d live shard(s) for replication factor %d",
			id, s.liveCount()-1, s.opt.Replicas)
	}
	sh := s.shards[id]
	names := s.arrayNamesLocked()

	rep := &RebalanceReport{}
	// Movement happens before the shard goes away: the drained shard
	// stays a valid (last-resort) source until its data has new homes.
	if err := s.reassignLocked(names, id, rep); err != nil {
		return nil, err
	}

	sh.live = false
	for _, name := range names {
		a := s.arrays[name]
		a.amu.Lock()
		delete(a.locals, id)
		for b, set := range a.stale {
			delete(set, id)
			if len(set) == 0 {
				delete(a.stale, b)
			}
		}
		a.amu.Unlock()
	}
	if err := sh.be.Close(); err != nil {
		return nil, fmt.Errorf("ring: close drained shard %d: %w", id, err)
	}
	rep.Shards = s.liveCount()
	if s.log.Enabled(obs.LevelInfo) {
		s.log.Info("ring", "rebalance.drain",
			obs.F("shard", id),
			obs.F("live", rep.Shards),
			obs.F("moved", rep.BlocksMoved),
			obs.F("bytes", rep.BytesMoved))
	}
	return rep, nil
}

// arrayNamesLocked lists the arrays in sorted order. Callers hold s.mu.
func (s *Store) arrayNamesLocked() []string {
	names := make([]string, 0, len(s.arrays))
	for name := range s.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// reassignLocked re-places every array over the live shards (drainID
// excluded when >= 0, i.e. a drain; -1 means a shard was just added) and
// moves every block replica whose assignment changed. Callers hold s.mu.
func (s *Store) reassignLocked(names []string, drainID int, rep *RebalanceReport) error {
	// Exclude the draining shard from placement; it comes back live as a
	// movement source until its data has new homes.
	if drainID >= 0 {
		s.shards[drainID].live = false
	}
	s.rebuildTable()
	old := make(map[string][][]int, len(names))
	placed := make(map[string][][]int, len(names))
	for _, name := range names {
		a := s.arrays[name]
		a.amu.Lock()
		old[name] = a.cands
		a.amu.Unlock()
		placed[name] = s.placeLocked(a)
	}
	if drainID >= 0 {
		s.shards[drainID].live = true
	}

	for _, name := range names {
		a := s.arrays[name]
		next := placed[name]
		if err := s.moveArrayLocked(a, old[name], next, drainID, rep); err != nil {
			return err
		}
		a.amu.Lock()
		a.cands = next
		// Drop stale flags of shards that stopped being candidates: their
		// copies are out of the read path entirely now.
		for b, set := range a.stale {
			keep := map[int]bool{}
			for _, id := range next[b] {
				keep[id] = true
			}
			for id := range set {
				if !keep[id] {
					delete(set, id)
				}
			}
			if len(set) == 0 {
				delete(a.stale, b)
			}
		}
		a.amu.Unlock()
	}
	s.recountDegradedLocked()
	return nil
}

// moveArrayLocked copies every block replica that newC assigns to a
// shard oldC did not. Sources are the old candidates in ring order
// (probed through the base backends, beneath any fault injector), with
// the draining shard last. Callers hold s.mu.
func (s *Store) moveArrayLocked(a *Array, oldC, newC [][]int, drainID int, rep *RebalanceReport) error {
	bases := map[int]disk.Array{}
	baseFor := func(id int) (disk.Array, error) {
		if arr, ok := bases[id]; ok {
			return arr, nil
		}
		if id < 0 || id >= len(s.shards) {
			return nil, fmt.Errorf("ring: no shard %d", id)
		}
		arr, err := baseBackend(s.shards[id].be).Open(a.name)
		if err != nil {
			return nil, fmt.Errorf("ring: shard %d: %w", id, err)
		}
		bases[id] = arr
		return arr, nil
	}
	buf := a.blockBuf()
	// Shards whose circuit breaker is open are not used as movement
	// sources: their copies are current but the shard is gray-failing,
	// and copying through it would serialize the rebalance behind it.
	// StateAt has no side effects, so it is safe under s.mu; a shard past
	// its cooldown reads half-open and is admitted as a probe.
	openSrc := func(id int) bool { return false }
	if s.hp != nil {
		now := s.front.Snapshot().Time()
		openSrc = func(id int) bool { return s.hp.tr.StateAt(id, now) == health.Open }
	}
	for b := int64(0); b < a.blocks; b++ {
		wasCand := map[int]bool{}
		for _, id := range oldC[b] {
			wasCand[id] = true
		}
		var added []int
		for _, id := range newC[b] {
			if !wasCand[id] {
				added = append(added, id)
			}
		}
		if len(added) == 0 {
			continue
		}
		// Source preference: surviving old candidates in ring order, the
		// draining shard (still open) last.
		var sources []int
		for _, id := range oldC[b] {
			if id != drainID && s.shards[id].live && !a.isStale(b, id) && !openSrc(id) {
				sources = append(sources, id)
			}
		}
		if drainID >= 0 && wasCand[drainID] && !a.isStale(b, drainID) && !openSrc(drainID) {
			sources = append(sources, drainID)
		}
		blo, bshape := a.blockSection(b)
		n := int64(1)
		for _, d := range bshape {
			n *= d
		}
		var bbuf []float64
		if s.withData {
			bbuf = buf[:n]
		}
		read := false
		for _, sid := range sources {
			arr, err := baseFor(sid)
			if err != nil {
				return err
			}
			if arr.ReadSection(blo, bshape, bbuf) == nil {
				read = true
				break
			}
		}
		for _, id := range added {
			if !read {
				// No healthy source: the new copy starts stale so reads
				// avoid it until HealArray or a fresh write converges it.
				a.markStale(b, id)
				rep.Unmoved++
				if s.log.Enabled(obs.LevelWarn) {
					s.log.Warn("ring", "rebalance.unmoved",
						obs.F("array", a.name),
						obs.F("block", b),
						obs.F("shard", id))
				}
				continue
			}
			arr, err := baseFor(id)
			if err != nil {
				return err
			}
			if werr := arr.WriteSection(blo, bshape, bbuf); werr != nil {
				a.markStale(b, id)
				rep.Unmoved++
				if s.log.Enabled(obs.LevelWarn) {
					s.log.Warn("ring", "rebalance.unmoved",
						obs.F("array", a.name),
						obs.F("block", b),
						obs.F("shard", id),
						obs.F("error", werr))
				}
				continue
			}
			rep.BlocksMoved++
			rep.BytesMoved += n * 8
			rep.Seconds += s.opt.Disk.ReadTime(n*8, 1) + s.opt.Disk.WriteTime(n*8, 1)
		}
	}
	return nil
}

// recountDegradedLocked is recountDegraded for callers holding s.mu.
func (s *Store) recountDegradedLocked() {
	var n int64
	for _, a := range s.arrays {
		a.amu.Lock()
		for _, shards := range a.stale {
			if len(shards) > 0 {
				n++
			}
		}
		a.amu.Unlock()
	}
	s.setDegraded(n)
}
