package ring

// Shard membership changes. An array keeps GA/DRA's floor split until
// the first membership change; each change then edits the array's
// blocks locally instead of re-splitting, so it moves about 1/P of the
// data:
//
//   - AddShard: the new shard takes the tail of every block, ⌊d/(L+1)⌋
//     of the d leading rows in all (L live shards before the add), cut
//     from each block in proportion to its length. It becomes the
//     primary of those rows, with the block's first R−1 replicas behind
//     it. Only the tail rows are copied, and only to the new shard.
//   - DrainShard: every block that lists the drained shard gets that
//     position filled by the live shard, not already in its list, that
//     holds the fewest of the array's rows at that position (the lowest
//     id on a tie). The block is copied to it once.
//
// Stale flags follow their rows when a block splits. Movement reads the
// first healthy old replica and writes the new one through the shards'
// base backends, so it is charged to the shards' modelled I/O statistics
// — rebalancing cost is part of the modelled cost, which tables.RingStudy
// measures. A membership change must not overlap section I/O.

import (
	"fmt"
	"slices"
	"sort"

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
// array on it, and hands it the tail of every block.
func (s *Store) AddShard() (*RebalanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ring: store closed")
	}
	live := s.liveCount()
	id := len(s.shards)
	sh := s.newShard(id)
	s.shards = append(s.shards, sh)

	names := s.arrayNamesLocked()
	for _, name := range names {
		a := s.arrays[name]
		la, err := sh.be.Create(name, a.dims)
		if err != nil {
			return nil, fmt.Errorf("ring: shard %d: %w", id, err)
		}
		a.setLocal(sh, la)
	}

	rep := &RebalanceReport{}
	for _, name := range names {
		if err := s.splitTailsLocked(s.arrays[name], id, live, rep); err != nil {
			return nil, err
		}
	}
	s.recountDegradedLocked()
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

// DrainShard retires shard id: every block it held is copied to a
// replacement shard, then its backend is closed. Draining below the
// replication factor is refused.
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
	for _, name := range names {
		if err := s.replaceLocked(s.arrays[name], id, rep); err != nil {
			return nil, err
		}
	}

	sh.live = false
	for _, name := range names {
		a := s.arrays[name]
		a.setLocal(sh, nil)
		a.amu.Lock()
		for b, set := range a.stale {
			delete(set, id)
			if len(set) == 0 {
				delete(a.stale, b)
			}
		}
		a.amu.Unlock()
	}
	s.recountDegradedLocked()
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

// splitTailsLocked hands the new shard id the tail of each of a's blocks
// (see the file comment); live is the live count before the add.
// Callers hold s.mu.
func (s *Store) splitTailsLocked(a *Array, id, live int, rep *RebalanceReport) error {
	a.amu.Lock()
	bounds, cands, stale := a.bounds, a.cands, a.stale
	a.amu.Unlock()
	d0 := a.d0()
	take := d0 / int64(live+1) // rows the new shard becomes primary for
	nb, nc, ns := []int64{0}, [][]int(nil), map[int64]map[int]bool{}
	for b, c := range cands {
		lo, hi := bounds[b], bounds[b+1]
		// A floor split of take over the rows: the cuts sum to take exactly.
		cut := hi - (take*hi/d0 - take*lo/d0)
		if cut > lo {
			if set := stale[int64(b)]; len(set) > 0 {
				ns[int64(len(nc))] = set
			}
			nb, nc = append(nb, cut), append(nc, c)
		}
		if cut == hi {
			continue
		}
		tail := append([]int{id}, c[:len(c)-1]...)
		set := map[int]bool{}
		for _, sid := range tail[1:] {
			if stale[int64(b)][sid] {
				set[sid] = true
			}
		}
		ok, err := s.copyRowsLocked(a, int64(b), cut, hi, c, id, rep)
		if err != nil {
			return err
		}
		if !ok {
			set[id] = true
		}
		if len(set) > 0 {
			ns[int64(len(nc))] = set
		}
		nb, nc = append(nb, hi), append(nc, tail)
	}
	a.amu.Lock()
	a.bounds, a.blocks, a.cands, a.stale = nb, int64(len(nc)), nc, ns
	a.amu.Unlock()
	return nil
}

// replaceLocked gives every block of a that lists the draining shard id a
// replacement in that position (see the file comment). Callers hold s.mu.
func (s *Store) replaceLocked(a *Array, id int, rep *RebalanceReport) error {
	a.amu.Lock()
	cands := slices.Clone(a.cands)
	a.amu.Unlock()
	held := make([][]int64, s.opt.Replicas) // rows held per position, per shard
	for r := range held {
		held[r] = make([]int64, len(s.shards))
	}
	for b, c := range cands {
		lo, hi := a.blockRange(int64(b))
		for r, sid := range c {
			held[r][sid] += hi - lo
		}
	}
	for b, c := range cands {
		pos := slices.Index(c, id)
		if pos < 0 {
			continue
		}
		to := -1
		for _, sh := range s.shards {
			if sh.live && sh.id != id && !slices.Contains(c, sh.id) && (to < 0 || held[pos][sh.id] < held[pos][to]) {
				to = sh.id
			}
		}
		lo, hi := a.blockRange(int64(b))
		held[pos][to] += hi - lo
		// Sources: the surviving replicas in ring order, the draining shard
		// (still open) last.
		srcs := append(slices.Delete(slices.Clone(c), pos, pos+1), id)
		ok, err := s.copyRowsLocked(a, int64(b), lo, hi, srcs, to, rep)
		if err != nil {
			return err
		}
		if !ok {
			a.markStale(int64(b), to)
		}
		cands[b] = slices.Clone(c)
		cands[b][pos] = to
	}
	a.amu.Lock()
	a.cands = cands
	a.amu.Unlock()
	return nil
}

// copyRowsLocked copies a's rows [lo, hi), which lie in block b, to shard
// to from the first of srcs whose copy is not stale, whose breaker is not
// open, and which reads cleanly. Sources and target are probed through
// their base backends, beneath any fault injector. It reports whether
// the copy landed; one that did not is counted unmoved and must start
// stale, so reads avoid it until HealArray or a fresh write converges
// it. Callers hold s.mu.
func (s *Store) copyRowsLocked(a *Array, b, lo, hi int64, srcs []int, to int, rep *RebalanceReport) (bool, error) {
	// A gray-failing source is current but would serialize the rebalance
	// behind it. StateAt has no side effects, so it is safe under s.mu; a
	// shard past its cooldown reads half-open and is admitted as a probe.
	now := s.front.Snapshot().Time()
	sec, shape := a.rowSection(lo, hi)
	n := (hi - lo) * a.rowSize
	var buf []float64
	if s.opt.WithData {
		buf = make([]float64, n)
	}
	read := false
	for _, sid := range srcs {
		if a.isStale(b, sid) || s.hp.openAt(sid, now) {
			continue
		}
		arr, _, err := openBase(s.shards[sid], a.name)
		if err != nil {
			return false, err
		}
		if arr.ReadSection(sec, shape, buf) == nil {
			read = true
			break
		}
	}
	var werr error
	if read {
		arr, _, err := openBase(s.shards[to], a.name)
		if err != nil {
			return false, err
		}
		werr = arr.WriteSection(sec, shape, buf)
	}
	if !read || werr != nil {
		rep.Unmoved++
		if s.log.Enabled(obs.LevelWarn) {
			s.log.Warn("ring", "rebalance.unmoved",
				obs.F("array", a.name),
				obs.F("block", b),
				obs.F("shard", to),
				obs.F("error", werr))
		}
		return false, nil
	}
	rep.BlocksMoved++
	rep.BytesMoved += n * 8
	rep.Seconds += s.opt.Disk.ReadTime(n*8, 1) + s.opt.Disk.WriteTime(n*8, 1)
	return true, nil
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
