package tables

// RingStudy pushes the Table 4 reproduction from the paper's P ∈ {2,4}
// to P ∈ {8..64} on the replicated sharded data plane (internal/ring)
// and measures what replication adds to the story:
//
//	(a) parallel I/O scaling at scale — doubling the shard count doubles
//	    both the aggregate memory the synthesis sees (less I/O volume)
//	    and the aggregate disk bandwidth, so modelled I/O time improves
//	    superlinearly, exactly Table 4's mechanism;
//	(b) the I/O-time overhead of replication factors R=2 and R=3 over
//	    R=1 (writes fan out R-fold; reads serve from one replica);
//	(c) the modelled cost of rebalancing when a shard is added to or
//	    drained from the R=2 ring.
//
// The rows render as text via FormatRingStudy; TestRingStudyShapeHolds
// holds them to these claims.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/ring"
)

// RingStudyRow is one shard count's measurements.
type RingStudyRow struct {
	Procs       int
	TotalMemory int64
	// Replica1/2/3Seconds are the ring's modelled parallel I/O times for
	// the DCS-synthesized plan at replication factors 1, 2, and 3.
	Replica1Seconds float64
	Replica2Seconds float64
	Replica3Seconds float64
	// Add and Drain account the rebalancing data movement of growing the
	// R=2 ring by one shard and draining one of the original shards.
	Add   *ring.RebalanceReport
	Drain *ring.RebalanceReport
}

// ReplicaOverhead returns the R-replica I/O time relative to R=1.
func (r RingStudyRow) ReplicaOverhead(replicas int) float64 {
	if r.Replica1Seconds <= 0 {
		return 1
	}
	switch replicas {
	case 2:
		return r.Replica2Seconds / r.Replica1Seconds
	case 3:
		return r.Replica3Seconds / r.Replica1Seconds
	}
	return 1
}

// RingStudyReport is the full study outcome.
type RingStudyReport struct {
	Size Size
	Rows []RingStudyRow
}

// RingStudy synthesizes the four-index transform with DCS for the
// aggregate memory of each shard count and executes the generated plan
// on cost-only rings at replication factors 1..3, then measures one
// add/drain rebalance on the R=2 ring.
func RingStudy(size Size, procCounts []int, opt Options) (*RingStudyReport, error) {
	rep := &RingStudyReport{Size: size}
	for _, p := range procCounts {
		if p < 3 {
			return nil, fmt.Errorf("tables: ring study needs at least 3 shards, got %d", p)
		}
		total := machine.OSCItanium2().MemoryLimit * int64(p)
		row := RingStudyRow{Procs: p, TotalMemory: total}
		s, err := synthesize(core.DCS, size, opt, total)
		if err != nil {
			return nil, fmt.Errorf("tables: DCS at P=%d: %w", p, err)
		}
		for replicas := 1; replicas <= 3; replicas++ {
			st, err := ring.New(ring.Options{
				Shards:   p,
				Replicas: replicas,
				Disk:     machine.OSCItanium2().Disk,
				Metrics:  opt.Metrics,
			})
			if err != nil {
				return nil, err
			}
			if _, err := exec.Run(s.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
				st.Close()
				return nil, fmt.Errorf("tables: ring run P=%d R=%d: %w", p, replicas, err)
			}
			switch replicas {
			case 1:
				row.Replica1Seconds = st.Time()
			case 2:
				row.Replica2Seconds = st.Time()
				// Membership changes on the ring that just served the run:
				// grow by one shard, then drain one of the originals.
				add, err := st.AddShard()
				if err != nil {
					st.Close()
					return nil, fmt.Errorf("tables: add shard P=%d: %w", p, err)
				}
				drain, err := st.DrainShard(0)
				if err != nil {
					st.Close()
					return nil, fmt.Errorf("tables: drain shard P=%d: %w", p, err)
				}
				row.Add, row.Drain = add, drain
			case 3:
				row.Replica3Seconds = st.Time()
			}
			st.Close()
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// FormatRingStudy renders the report in the Table 4 layout, extended
// with the replication and rebalancing columns.
func FormatRingStudy(rep *RingStudyReport) string {
	var b strings.Builder
	b.WriteString("Ring study: modelled parallel disk I/O times on the replicated data plane (s)\n")
	b.WriteString("Shards  Total memory (GB)      R=1      R=2      R=3  R2/R1  R3/R1  add move (s)  drain move (s)\n")
	for _, r := range rep.Rows {
		addSec, drainSec := 0.0, 0.0
		if r.Add != nil {
			addSec = r.Add.Seconds
		}
		if r.Drain != nil {
			drainSec = r.Drain.Seconds
		}
		fmt.Fprintf(&b, "%6d  %17.0f  %7.1f  %7.1f  %7.1f  %5.2f  %5.2f  %12.1f  %14.1f\n",
			r.Procs, float64(r.TotalMemory)/float64(machine.GB),
			r.Replica1Seconds, r.Replica2Seconds, r.Replica3Seconds,
			r.ReplicaOverhead(2), r.ReplicaOverhead(3), addSec, drainSec)
	}
	return b.String()
}
