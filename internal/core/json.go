package core

import (
	"encoding/json"
	"sort"
)

// SynthesisJSON is the machine-readable view of a synthesis result,
// exported for tooling (dashboards, regression tracking, external
// schedulers).
type SynthesisJSON struct {
	Program             string            `json:"program"`
	Strategy            string            `json:"strategy"`
	Seed                int64             `json:"seed"`
	GenTimeSeconds      float64           `json:"gen_time_seconds"`
	SolverEvals         int64             `json:"solver_evals"`
	PredictedSeconds    float64           `json:"predicted_io_seconds"`
	PredictedReadBytes  float64           `json:"predicted_read_bytes"`
	PredictedWriteBytes float64           `json:"predicted_write_bytes"`
	MemoryBytes         int64             `json:"buffer_memory_bytes"`
	MemoryLimit         int64             `json:"memory_limit_bytes"`
	Tiles               map[string]int64  `json:"tile_sizes"`
	Placements          map[string]string `json:"placements"`
	DiskArrays          []DiskArrayJSON   `json:"disk_arrays"`
	ConcreteCode        string            `json:"concrete_code"`
}

// DiskArrayJSON describes one disk-resident array of the plan.
type DiskArrayJSON struct {
	Name      string  `json:"name"`
	Dims      []int64 `json:"dims"`
	Kind      string  `json:"kind"`
	NeedsInit bool    `json:"needs_zero_init"`
}

// Export builds the JSON view.
func (s *Synthesis) Export() SynthesisJSON {
	out := SynthesisJSON{
		Program:             s.Model.Prog.Name,
		Strategy:            s.Strategy.String(),
		Seed:                s.Seed,
		GenTimeSeconds:      s.GenTime.Seconds(),
		SolverEvals:         s.SolverEvals,
		PredictedSeconds:    s.Predicted(),
		PredictedReadBytes:  s.Plan.PredictedReadBytes,
		PredictedWriteBytes: s.Plan.PredictedWriteBytes,
		MemoryBytes:         s.Plan.MemoryBytes(),
		MemoryLimit:         s.Model.Cfg.MemoryLimit,
		Tiles:               s.Assign.Tiles,
		Placements:          map[string]string{},
		ConcreteCode:        s.Plan.String(),
	}
	for name, c := range s.Assign.Selected {
		out.Placements[name] = c.Label
	}
	for _, da := range s.Plan.DiskArrays {
		out.DiskArrays = append(out.DiskArrays, DiskArrayJSON{
			Name:      da.Name,
			Dims:      da.Dims,
			Kind:      da.Kind.String(),
			NeedsInit: da.NeedsInit,
		})
	}
	sort.Slice(out.DiskArrays, func(i, j int) bool { return out.DiskArrays[i].Name < out.DiskArrays[j].Name })
	return out
}

// JSON marshals the synthesis result (indented).
func (s *Synthesis) JSON() ([]byte, error) {
	return json.MarshalIndent(s.Export(), "", "  ")
}
