package tables

// GrayStudy measures what the shard-health plane buys under a gray
// failure: a seeded brownout (a latency window with no typed errors, so
// replica failover never triggers) on one shard of the R=2 ring. Three
// scenarios run the same DCS-synthesized plan on the same placement:
//
//	(a) fault-free — the baseline experienced read time;
//	(b) brownout-unmitigated — the health plane observes but its budgets
//	    are set beyond reach, so breakers never open and reads never
//	    hedge: every spike lands in the experienced tail;
//	(c) brownout-mitigated — default budgets: the breaker demotes the
//	    browned shard and hedged reads rescue the spiked reads that
//	    race it open.
//
// The figure of merit is the tail ratio — experienced front-door read
// seconds over the charged single-disk-equivalent figure — which
// TestGrayStudyShapeHolds bounds at 1.25× for the mitigated run while
// requiring the unmitigated run to exceed it. Rows render as text via
// FormatGrayStudy.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/ring"
)

// grayShards and grayReplicas fix the study's ring geometry.
const (
	grayShards   = 4
	grayReplicas = 2
	// grayVictim is the 0-based browned shard index.
	grayVictim = 1
)

// GrayStudyRow is one scenario's measurements.
type GrayStudyRow struct {
	Scenario string
	// ChargedReadSeconds is the front door's single-disk-equivalent read
	// time; ExperiencedReadSeconds adds the tail actually waited out
	// (spikes paid, net of hedge rescues). TailRatio is their quotient —
	// the study's acceptance figure.
	ChargedReadSeconds     float64
	TailReadSeconds        float64
	ExperiencedReadSeconds float64
	TailRatio              float64
	// TailWriteSeconds is the write-side tail (spikes paid by writes;
	// writes are never hedged or breaker-gated, so nothing rescues it).
	TailWriteSeconds float64
	// LatencySpikes / SpikeSeconds account what the injector inflicted.
	LatencySpikes int64
	SpikeSeconds  float64
	// Hedge and breaker tallies from the health plane.
	HedgesIssued    int64
	HedgesWon       int64
	HedgesCancelled int64
	BreakerOpens    int64
	BreakerHalfOpen int64
	BreakerCloses   int64
	// ScrubArrays is the scheduled scrub pass's coverage.
	ScrubArrays int
}

// GrayStudyReport is the full study outcome.
type GrayStudyReport struct {
	Size Size
	// Brownout is the derived fault schedule the faulted scenarios share.
	Brownout string
	Rows     []GrayStudyRow
}

// graySizing carries the fault-free run's op counts, which the study
// derives the brownout schedule from.
type graySizing struct {
	// frontReadOps is the front door's section-read count; charged read
	// seconds over it is the mean section read a spike must dwarf.
	frontReadOps int64
	// victimOps is the victim shard's total op count, which positions
	// and sizes the ordinal window.
	victimOps int64
}

// grayRun executes the plan once on a fresh ring under one scenario.
func grayRun(scenario string, s *core.Synthesis, opt Options, faults *fault.Config, hcfg health.Config) (GrayStudyRow, graySizing, error) {
	row := GrayStudyRow{Scenario: scenario}
	st, err := ring.New(ring.Options{
		Shards:   grayShards,
		Replicas: grayReplicas,
		Disk:     machine.OSCItanium2().Disk,
		Faults:   faults,
		Retry:    disk.DefaultRetryPolicy(),
		Health:   &hcfg,
		Metrics:  opt.Metrics,
		Log:      opt.Log,
	})
	if err != nil {
		return row, graySizing{}, err
	}
	defer st.Close()
	sched, err := health.NewScrubScheduler(st, health.SchedOptions{
		Interval: 4, Metrics: opt.Metrics, Log: opt.Log,
	})
	if err != nil {
		return row, graySizing{}, err
	}
	res, err := exec.Run(s.Plan, st, nil, exec.Options{DryRun: true, OnUnit: sched.Tick})
	if err != nil {
		return row, graySizing{}, fmt.Errorf("tables: gray run %q: %w", scenario, err)
	}
	if err := sched.Drain(); err != nil {
		return row, graySizing{}, fmt.Errorf("tables: gray scrub drain %q: %w", scenario, err)
	}
	row.ChargedReadSeconds = res.Stats.ReadTime
	row.TailReadSeconds = st.TailReadSeconds()
	row.TailWriteSeconds = st.TailWriteSeconds()
	row.ExperiencedReadSeconds = st.FrontReadSeconds()
	if row.ChargedReadSeconds > 0 {
		row.TailRatio = row.ExperiencedReadSeconds / row.ChargedReadSeconds
	}
	if faults != nil {
		if inj, ok := st.ShardBackend(grayVictim).(*fault.Injector); ok {
			c := inj.Counts()
			row.LatencySpikes, row.SpikeSeconds = c.LatencySpikes, c.LatencySeconds
		}
	}
	row.HedgesIssued, row.HedgesWon, row.HedgesCancelled = st.HedgeCounts()
	row.BreakerOpens, row.BreakerHalfOpen, row.BreakerCloses = st.BreakerTransitions()
	row.ScrubArrays = sched.Report().Arrays
	victim := st.ShardReport(grayVictim).Stats
	return row, graySizing{
		frontReadOps: res.Stats.ReadOps,
		victimOps:    victim.ReadOps + victim.WriteOps,
	}, nil
}

// GrayStudy synthesizes the four-index transform and runs the three
// scenarios. Unlike RingStudy the synthesis sees one node's memory, not
// the ring's aggregate: a robustness study needs a long block-level op
// stream (hundreds of ops per shard) for the breaker lifecycle to play
// out, not the few huge transfers the aggregate-memory plan does. The
// brownout is sized from the fault-free run: each spike is 20× the mean
// charged section read (far past the hedge threshold), and the window
// opens an eighth of the way into the victim's op stream and spans a
// sixteenth of it (at least eight ops), leaving the rest of the run for
// the breaker to probe its way closed.
func GrayStudy(size Size, opt Options) (*GrayStudyReport, error) {
	s, err := synthesize(core.DCS, size, opt, machine.OSCItanium2().MemoryLimit)
	if err != nil {
		return nil, fmt.Errorf("tables: DCS for gray study: %w", err)
	}
	rep := &GrayStudyReport{Size: size}

	ff, sizing, err := grayRun("fault-free", s, opt, nil, health.Config{})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, ff)

	meanRead := ff.ChargedReadSeconds / float64(max(1, sizing.frontReadOps))
	brown := &fault.Config{
		Seed:           11,
		LatencySeconds: 20 * meanRead,
		BrownoutAfter:  max(1, sizing.victimOps/8),
		BrownoutOps:    max(8, sizing.victimOps/16),
		Shard:          grayVictim + 1, // Config stores index+1
	}
	rep.Brownout = brown.String()

	// Budgets far beyond reach: the plane observes, nothing mitigates.
	huge := 1e18
	raw, _, err := grayRun("brownout-unmitigated", s, opt, brown,
		health.Config{LatencyBudget: huge, ErrorBudget: huge, MinHedgeRatio: huge})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, raw)

	// The one knob scaled to the workload: the default cooldown (0.05
	// modelled seconds) is sized for fine-grained op streams, but this
	// plan's section reads are seconds long — an open breaker would be
	// probed again on the very next collective, paying a spike each
	// time. Resting for ~20 mean reads keeps the probe cadence (and the
	// hedge detours that rescue the probes) a small fraction of the run.
	mit, _, err := grayRun("brownout-mitigated", s, opt, brown,
		health.Config{CooldownSeconds: 20 * meanRead})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, mit)
	return rep, nil
}

// FormatGrayStudy renders the report as a text table.
func FormatGrayStudy(rep *GrayStudyReport) string {
	var b strings.Builder
	b.WriteString("Gray-failure study: experienced vs charged front-door read time under a one-shard brownout\n")
	fmt.Fprintf(&b, "brownout schedule: %s\n", rep.Brownout)
	b.WriteString("Scenario              charged (s)  tail (s)  experienced (s)  ratio  spikes  hedge won/issued  breaker o/h/c  scrubbed\n")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-20s  %11.2f  %8.2f  %15.2f  %5.2f  %6d  %7d/%-8d  %4d/%d/%d  %8d\n",
			r.Scenario, r.ChargedReadSeconds, r.TailReadSeconds, r.ExperiencedReadSeconds,
			r.TailRatio, r.LatencySpikes, r.HedgesWon, r.HedgesIssued,
			r.BreakerOpens, r.BreakerHalfOpen, r.BreakerCloses, r.ScrubArrays)
	}
	return b.String()
}
