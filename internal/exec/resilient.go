package exec

// This file adds checkpoint-based crash recovery on top of the engine's
// retry layer (exec.go). Retries absorb transient faults inside a run;
// RunResilient handles what escapes them — persistent faults, exhausted
// retry budgets — by rolling back to the last completed checkpoint
// boundary and re-entering the engine through the existing Resume path,
// under a bounded restart budget. The division of labour mirrors the
// failure taxonomy: transient → retry, persistent → restart, budget
// exhausted → typed, attributed error to the caller.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// RecoveryOptions bound RunResilient's restart behaviour.
type RecoveryOptions struct {
	// MaxRestarts is the restart budget; values < 1 mean the default
	// of 3. When it is exhausted the last run's error is returned.
	MaxRestarts int
	// Reopen, if non-nil, is called before each restart to rebuild the
	// backend (e.g. a fresh disk.FileStore over the same directory
	// after a crashed process). The previous backend is abandoned, not
	// closed — after a fault its state is suspect, and closing a
	// simulator would destroy the arrays a resume needs. When nil,
	// RunResilient probes the backend itself for disk.Reopener (which
	// FileStore and fault.Injector implement) and otherwise reuses the
	// same backend.
	Reopen func() (disk.Backend, error)
}

// DefaultMaxRestarts is the restart budget when RecoveryOptions leaves
// MaxRestarts unset.
const DefaultMaxRestarts = 3

// RecoveryReport is the structured account of a resilient run: what
// faults were seen, how much work retries and restarts absorbed, and
// what it cost in modelled time.
type RecoveryReport struct {
	// FaultsSeen counts typed I/O errors observed across all attempts.
	FaultsSeen int64 `json:"faults_seen"`
	// Retries counts section-level retry attempts across all runs.
	Retries int64 `json:"retries"`
	// RetrySeconds is the modelled time spent on backoff delays and
	// repeated attempts.
	RetrySeconds float64 `json:"retry_seconds"`
	// Restarts counts checkpoint rollbacks (0 for a clean run).
	Restarts int64 `json:"restarts"`
	// ResumePoints lists the checkpoint each restart resumed from.
	ResumePoints []Checkpoint `json:"resume_points,omitempty"`
	// WastedSeconds is the modelled I/O time of work executed past a
	// checkpoint and then repeated after a rollback.
	WastedSeconds float64 `json:"wasted_seconds"`
	// TotalStats accumulates the backend's modelled I/O statistics
	// across every attempt, failed ones included.
	TotalStats disk.Stats `json:"total_stats"`
	// IntegrityDetected counts restarts triggered by a verified-read
	// checksum failure (disk.IntegrityError) rather than an ordinary I/O
	// fault; IntegrityHealed counts those the heal path resolved (restage
	// or recompute) before resuming.
	IntegrityDetected int64 `json:"integrity_detected,omitempty"`
	IntegrityHealed   int64 `json:"integrity_healed,omitempty"`
	// Heals lists what the heal path did for each integrity fault.
	Heals []HealAction `json:"heals,omitempty"`
}

// HealAction records how one integrity fault was resolved: the rotten
// array, the method ("restage" re-wrote an input from its source tensor;
// "recompute" rolled the resume point back to the array's producer unit),
// and the checkpoint the run resumed from afterwards.
type HealAction struct {
	Array  string     `json:"array"`
	Method string     `json:"method"`
	Resume Checkpoint `json:"resume"`
}

func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults %d, retries %d (%.3f s), restarts %d, wasted %.3f s",
		r.FaultsSeen, r.Retries, r.RetrySeconds, r.Restarts, r.WastedSeconds)
	if r.IntegrityDetected > 0 {
		fmt.Fprintf(&b, ", integrity faults %d (healed %d)", r.IntegrityDetected, r.IntegrityHealed)
	}
	if len(r.ResumePoints) > 0 {
		b.WriteString(", resumed at")
		for _, cp := range r.ResumePoints {
			fmt.Fprintf(&b, " {item %d, iter %d}", cp.Item, cp.Iter)
		}
	}
	return b.String()
}

// accumulate folds one attempt's tallies into the report.
func (r *RecoveryReport) accumulate(st disk.Stats, rt RetryStats, wasted float64) {
	r.FaultsSeen += rt.FaultsSeen
	r.Retries += rt.Retries
	r.RetrySeconds += rt.RetrySeconds
	r.WastedSeconds += wasted
	r.TotalStats.Add(st)
}

// RecoverySafe reports whether a restart may resume from a mid-plan
// checkpoint: the plan must be Checkpointable, and no top-level item may
// both read and write the same disk array (an init pass counts as a
// write). A partially executed unit of such a plan is harmless — its
// re-execution reads only arrays the unit does not write, so it cannot
// observe its own partial output. Read-modify-write accumulation fails
// the test; those plans restart from the beginning (Checkpoint{0, 0}),
// where the init passes re-zero the accumulators.
func RecoverySafe(p *codegen.Plan) bool {
	if !Checkpointable(p) {
		return false
	}
	for _, n := range p.Body {
		reads, writes := codegen.UnitIO(n)
		for a := range writes {
			if reads[a] {
				return false
			}
		}
	}
	return true
}

// ProducerUnit returns the index of the first top-level plan item whose
// subtree writes the named disk array (an init pass counts as a write) —
// the unit integrity recovery rolls back to when a disk intermediate is
// found rotten. The static verifier's rule S5 checks the same property
// ahead of time: every non-input array read at the top level must have
// such a producer at or before its first reader.
func ProducerUnit(p *codegen.Plan, array string) (int64, bool) {
	for i, n := range p.Body {
		if _, writes := codegen.UnitIO(n); writes[array] {
			return int64(i), true
		}
	}
	return 0, false
}

// RunResilient executes the plan with checkpoint-based crash recovery:
// when a run fails on a typed I/O fault after staging completed, it
// rolls back to the last completed checkpoint boundary (or the start,
// for plans that are not RecoverySafe), optionally re-opens the backend,
// and resumes via Options.Resume — up to rc.MaxRestarts times. The
// returned report accounts for every attempt; on success it is also
// attached to Result.Recovery.
//
// Requirements: the plan must be Checkpointable for mid-plan restarts
// (otherwise only the retry layer applies and any persistent fault is
// fatal), and opt.Resume/opt.StopAfter must be unset — RunResilient owns
// the checkpoint machinery.
func RunResilient(ctx context.Context, p *codegen.Plan, be disk.Backend, inputs map[string]*tensor.Tensor, opt Options, rc RecoveryOptions) (*Result, *RecoveryReport, error) {
	if opt.Resume != nil || opt.StopAfter > 0 {
		return nil, nil, fmt.Errorf("exec: RunResilient owns Resume/StopAfter; leave them unset")
	}
	maxRestarts := rc.MaxRestarts
	if maxRestarts < 1 {
		maxRestarts = DefaultMaxRestarts
	}
	rep := &RecoveryReport{}
	// Recovery implies the durability discipline: a checkpoint may only
	// advance once its unit's bytes are durable, or a resume could skip
	// work whose output a crash threw away.
	base := opt
	base.SyncUnits = true
	runOpt := base
	for {
		res, err := RunContext(ctx, p, be, inputs, runOpt)
		if err == nil {
			rep.accumulate(res.Stats, res.Retry, 0)
			res.Recovery = rep
			if rep.Restarts > 0 || rep.FaultsSeen > 0 {
				opt.Log.Info("exec", "recovery.done",
					obs.F("restarts", rep.Restarts),
					obs.F("faults", rep.FaultsSeen),
					obs.F("retries", rep.Retries),
					obs.F("integrity_healed", rep.IntegrityHealed),
					obs.F("wasted_s", rep.WastedSeconds))
			}
			return res, rep, nil
		}
		var re *RunError
		if errors.As(err, &re) {
			rep.accumulate(re.Stats, re.Retry, re.WastedSeconds)
		}
		var ioe *disk.IOError
		restartable := errors.As(err, &ioe) &&
			re != nil && re.Staged && re.Checkpoint != nil
		if !restartable || rep.Restarts >= int64(maxRestarts) || ctx != nil && ctx.Err() != nil {
			opt.Log.Error("exec", "recovery.failed",
				obs.F("restarts", rep.Restarts),
				obs.F("restartable", restartable),
				obs.F("error", err))
			return nil, rep, err
		}
		cp := *re.Checkpoint
		if !RecoverySafe(p) {
			// A partially executed unit may have fed its own partial
			// writes back through a read-modify-write; replay from the
			// start, where init passes re-zero the accumulators.
			cp = Checkpoint{}
		}
		// An integrity fault needs more than a rollback: re-reading a
		// rotten block returns the same bytes, so the data itself must be
		// healed before the resumed run can get past it.
		var ie *disk.IntegrityError
		if errors.As(err, &ie) {
			rep.IntegrityDetected++
			opt.Metrics.Counter("exec.integrity.detected").Add(1)
			opt.Log.Warn("exec", "integrity.detected",
				obs.F("array", ie.Array),
				obs.F("error", err))
			heal, herr := healIntegrity(p, be, inputs, ie, &cp, opt.DryRun)
			if herr != nil {
				opt.Log.Error("exec", "integrity.unhealable",
					obs.F("array", ie.Array),
					obs.F("error", herr))
				return nil, rep, fmt.Errorf("exec: integrity fault on array %q cannot be healed (%v): %w", ie.Array, herr, err)
			}
			rep.IntegrityHealed++
			rep.Heals = append(rep.Heals, heal)
			opt.Metrics.Counter("exec.integrity.healed").Add(1)
			opt.Log.Info("exec", "integrity.healed",
				obs.F("array", heal.Array),
				obs.F("method", heal.Method),
				obs.F("resume_item", heal.Resume.Item),
				obs.F("resume_iter", heal.Resume.Iter))
		}
		if rc.Reopen != nil {
			nbe, rerr := rc.Reopen()
			if rerr != nil {
				return nil, rep, fmt.Errorf("exec: recovery reopen: %w", rerr)
			}
			be = nbe
		} else if ro, ok := be.(disk.Reopener); ok {
			// Persistent faults can leave file handles or wrapper state
			// suspect; rebuild the backend over its surviving files.
			nbe, rerr := ro.Reopen()
			if rerr != nil {
				return nil, rep, fmt.Errorf("exec: recovery reopen: %w", rerr)
			}
			be = nbe
		}
		rep.Restarts++
		rep.ResumePoints = append(rep.ResumePoints, cp)
		opt.Log.Warn("exec", "recovery.restart",
			obs.F("restart", rep.Restarts),
			obs.F("resume_item", cp.Item),
			obs.F("resume_iter", cp.Iter),
			obs.F("error", err))
		runOpt = base
		runOpt.Resume = &cp
		// The resume path opens every array the interrupted attempt
		// created; staging (and OpenInputs) no longer applies.
		runOpt.OpenInputs = false
	}
}

// healIntegrity resolves one verified-read failure so the resumed run can
// make progress. The order is bless-then-regenerate: the rotten array's
// checksum index is first rebuilt to accept its current contents (every
// write verifies the blocks it touches before mutating them, so without
// the blessing the heal's own writes — and the resumed run's — would trip
// on the same rot forever), then the data is regenerated over the blessed
// bytes: an input is re-staged whole from its source tensor; a disk
// intermediate is recomputed by rolling the resume point back to its
// producer unit, whose re-execution rewrites every block the plan reads
// (the verifier's dataflow rules guarantee reads are write-covered).
// Finally the backend is synced so a reopen does not resurrect the stale
// pre-heal index. On success cp holds the (possibly rolled back) resume
// point.
func healIntegrity(p *codegen.Plan, be disk.Backend, inputs map[string]*tensor.Tensor, ie *disk.IntegrityError, cp *Checkpoint, dryRun bool) (HealAction, error) {
	// Repair-before-recompute: a replicated backend (ring.Store) first
	// tries to restore the rotten copies from a healthy replica — the
	// data already exists, no rollback or re-staging needed. Only when
	// some block has no healthy replica left does the single-backend
	// bless-then-regenerate path below take over.
	if h, ok := disk.Find[disk.ReplicaHealer](be); ok {
		if _, unhealed, err := h.HealArray(ie.Array); err == nil && unhealed == 0 {
			if err := disk.SyncBackend(be); err != nil {
				return HealAction{}, fmt.Errorf("sync healed replicas: %w", err)
			}
			return HealAction{Array: ie.Array, Method: "replica-copy", Resume: *cp}, nil
		}
		// Heal error or unhealed blocks: whatever copies did converge
		// stay converged; the rest needs the regeneration path below.
	}
	st, ok := disk.Find[disk.IntegrityStore](be)
	if !ok {
		return HealAction{}, fmt.Errorf("backend keeps no integrity metadata")
	}
	if err := st.RebuildChecksums(ie.Array); err != nil {
		return HealAction{}, fmt.Errorf("rebuild checksums: %w", err)
	}
	var da *codegen.DiskArray
	for i := range p.DiskArrays {
		if p.DiskArrays[i].Name == ie.Array {
			da = &p.DiskArrays[i]
			break
		}
	}
	if da == nil {
		return HealAction{}, fmt.Errorf("not a plan array")
	}
	act := HealAction{Array: ie.Array}
	if da.Kind == loops.Input {
		// The pristine source data is in hand; re-stage the whole array.
		// Dry runs stage no input data, so the blessed (cost-only) index
		// is already the heal.
		in, ok := inputs[ie.Array]
		if !ok || in == nil {
			if !dryRun {
				return HealAction{}, fmt.Errorf("input has no source tensor to re-stage from")
			}
		} else if !dryRun {
			a, err := be.Open(ie.Array)
			if err != nil {
				return HealAction{}, fmt.Errorf("re-stage: %w", err)
			}
			lo := make([]int64, len(da.Dims))
			if err := a.WriteSection(lo, da.Dims, in.Data()); err != nil {
				return HealAction{}, fmt.Errorf("re-stage: %w", err)
			}
		}
		act.Method = "restage"
	} else {
		prod, ok := ProducerUnit(p, ie.Array)
		if !ok {
			return HealAction{}, fmt.Errorf("no producer unit writes it")
		}
		if prod < cp.Item || (prod == cp.Item && cp.Iter > 0) {
			*cp = Checkpoint{Item: prod}
		}
		act.Method = "recompute"
	}
	if err := disk.SyncBackend(be); err != nil {
		return HealAction{}, fmt.Errorf("sync healed index: %w", err)
	}
	act.Resume = *cp
	return act, nil
}
