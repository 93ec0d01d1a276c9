package tables

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/machine"
)

// RecoveryRow is one row of the fault-recovery study: the modelled cost
// of running the synthesized code under a seeded fault schedule with
// retries and checkpoint recovery enabled, against the clean run.
type RecoveryRow struct {
	Size Size
	// CleanSeconds is the modelled serial I/O time without faults.
	CleanSeconds float64
	// FaultySeconds is the modelled I/O time accumulated across every
	// attempt of the fault-injected run, retries and restarts included.
	FaultySeconds float64
	// OverheadPct is the relative cost of surviving the schedule.
	OverheadPct float64
	// FaultsInjected counts what the injector fired (all kinds).
	FaultsInjected int64
	// Retries and Restarts count the recovery machinery's responses.
	Retries  int64
	Restarts int64
	// WastedSeconds is modelled work repeated after rollbacks.
	WastedSeconds float64
	// SilentInjected counts corruptions the injector planted without an
	// error (bit flips, lost writes, torn-returning-success); detection is
	// the checksum layer's job. IntegrityDetected/IntegrityHealed count the
	// verified-read failures recovery saw and resolved.
	SilentInjected    int64
	IntegrityDetected int64
	IntegrityHealed   int64
}

// RecoveryStudy synthesizes each size with DCS and measures the generated
// code's modelled I/O time twice: clean, and under the given fault
// schedule with the full resilience stack (section retries plus
// checkpoint recovery). Persistent-fault windows are dropped for plans
// that are not checkpointable — there is no boundary to restart from.
func RecoveryStudy(sizes []Size, fcfg fault.Config, opt Options) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, sz := range sizes {
		ds, err := synthesize(core.DCS, sz, opt, 0)
		if err != nil {
			return nil, fmt.Errorf("tables: DCS at %v: %w", sz, err)
		}
		clean, err := ds.MeasureSim()
		if err != nil {
			return nil, fmt.Errorf("tables: clean measurement at %v: %w", sz, err)
		}

		cfg := fcfg
		if cfg.PersistentAfter > 0 && !exec.Checkpointable(ds.Plan) {
			cfg.PersistentAfter = 0
		}
		be := disk.NewSim(machine.OSCItanium2().Disk, false)
		inj := fault.Wrap(be, cfg)
		_, rep, err := exec.RunResilient(nil, ds.Plan, inj, nil, exec.Options{
			DryRun:   true,
			Pipeline: ds.Pipeline,
			Retry:    disk.DefaultRetryPolicy(),
			Metrics:  opt.Metrics,
			Log:      opt.Log,
		}, exec.RecoveryOptions{})
		be.Close()
		if err != nil {
			return nil, fmt.Errorf("tables: faulted measurement at %v (%s): %w", sz, cfg, err)
		}
		c := inj.Counts()
		row := RecoveryRow{
			Size:           sz,
			CleanSeconds:   clean.Time(),
			FaultySeconds:  rep.TotalStats.Time() + rep.RetrySeconds,
			FaultsInjected: c.Faults(),
			Retries:        rep.Retries,
			Restarts:       rep.Restarts,
			WastedSeconds:  rep.WastedSeconds,

			SilentInjected:    c.Silent(),
			IntegrityDetected: rep.IntegrityDetected,
			IntegrityHealed:   rep.IntegrityHealed,
		}
		if row.CleanSeconds > 0 {
			row.OverheadPct = 100 * (row.FaultySeconds - row.CleanSeconds) / row.CleanSeconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRecovery renders the study in the evaluation-table layout.
func FormatRecovery(rows []RecoveryRow, fcfg fault.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault recovery: modelled I/O time under injection (%s)\n", fcfg)
	b.WriteString("Ranges(p..s)  Ranges(a..d)    clean(s)  faulty(s)  overhead  faults  retries  restarts\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d  %12d  %10.0f  %9.0f  %7.1f%%  %6d  %7d  %8d\n",
			r.Size.N, r.Size.V, r.CleanSeconds, r.FaultySeconds, r.OverheadPct,
			r.FaultsInjected, r.Retries, r.Restarts)
	}
	return b.String()
}
