// Package cachetile applies the synthesis machinery recursively one level
// down the memory hierarchy: each in-memory compute block of a concrete
// out-of-core plan is itself a small dense contraction whose operands are
// the in-memory buffers, and choosing its cache-tile sizes to minimize
// memory-to-cache traffic under the cache capacity is exactly the
// disk-level problem with renamed constants (the memory↔cache
// optimization of the Cociorva et al. lineage the paper extends). The
// block is lowered to a one-statement abstract program whose "disk" is
// main memory and whose "memory limit" is the cache, and the same
// placement/NLP/DCS pipeline solves it. Together with the disk-level
// synthesis and the compute-time model this gives the full hierarchy's
// time breakdown (Breakdown): disk I/O, memory↔cache traffic, arithmetic.
package cachetile

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
)

// CacheConfig models the memory↔cache level of one node.
type CacheConfig struct {
	// CacheBytes is the usable cache capacity for blocking.
	CacheBytes int64
	// LineBytes is the transfer granularity (the level's "minimum block").
	LineBytes int64
	// Latency is the per-transfer overhead in seconds (the level's
	// "seek").
	Latency float64
	// Bandwidth is the memory→cache transfer rate in bytes/s.
	Bandwidth float64
}

// ItaniumL3 models the Itanium-2's 1.5 MB L3 with ~128-byte lines.
func ItaniumL3() CacheConfig {
	return CacheConfig{
		CacheBytes: 1536 << 10,
		LineBytes:  128,
		Latency:    120e-9,
		Bandwidth:  6.4e9,
	}
}

// machineFor translates the cache level into the machine model the
// pipeline understands.
func (c CacheConfig) machineFor() machine.Config {
	return machine.Config{
		Name:        "cache level",
		MemoryLimit: c.CacheBytes,
		ElemSize:    8,
		Disk: machine.Disk{
			SeekTime:       c.Latency,
			ReadBandwidth:  c.Bandwidth,
			WriteBandwidth: c.Bandwidth,
			MinReadBlock:   c.LineBytes,
			MinWriteBlock:  c.LineBytes,
		},
	}
}

// BlockProgram lowers one compute block of a concrete plan to a
// stand-alone abstract program over the block's intra-tile index space:
// the factor buffers become "disk-resident" inputs, the output buffer the
// output, with extents equal to the buffers' instantiated sizes.
func BlockProgram(plan *codegen.Plan, c *codegen.Compute) (*loops.Program, error) {
	// The block's index space is the intra-tile iteration: extent
	// min(T_x, N_x) per index. A buffer spanning the full range along
	// some dimension is still touched one tile per execution, so the
	// cache-level "disk array" is the touched slice.
	ranges := map[string]int64{}
	addDims := func(b *codegen.Buffer) {
		for _, d := range b.Dims {
			n := plan.Prog.Ranges[d.Index]
			t := plan.Tiles[d.Index]
			if t < n {
				n = t
			}
			ranges[d.Index] = n
		}
	}
	addDims(c.Out)
	for _, f := range c.Factors {
		addDims(f)
	}

	prog := loops.NewProgram("cache-block", ranges)
	declared := map[string]bool{}
	declare := func(b *codegen.Buffer, kind loops.Kind) []string {
		idx := make([]string, len(b.Dims))
		for i, d := range b.Dims {
			idx[i] = d.Index
		}
		if !declared[b.Name] {
			prog.DeclareArray(b.Name, kind, idx...)
			declared[b.Name] = true
		}
		return idx
	}
	outIdx := declare(c.Out, loops.Output)
	stmt := &loops.Stmt{Out: ref(c.Out.Name, outIdx)}
	for _, f := range c.Factors {
		if f == c.Out {
			return nil, fmt.Errorf("cachetile: output buffer used as factor")
		}
		idx := declare(f, loops.Input)
		stmt.Factors = append(stmt.Factors, ref(f.Name, idx))
	}

	// Loop order: the block's intra order, restricted to indices that
	// appear in some buffer (others are invisible at this level).
	var loopIdx []string
	for _, x := range c.Intra {
		if _, ok := ranges[x]; ok {
			loopIdx = append(loopIdx, x)
		}
	}
	prog.Body = []loops.Node{
		&loops.Init{Array: c.Out.Name},
		loops.L([]loops.Node{stmt}, loopIdx...),
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cachetile: block program invalid: %w", err)
	}
	return prog, nil
}

func ref(name string, idx []string) expr.Ref {
	return expr.Ref{Name: name, Indices: idx}
}

// BlockResult is the cache-tiling outcome for one compute block.
type BlockResult struct {
	// Statement renders the block's statement.
	Statement string
	// Tiles are the chosen cache-tile sizes per index.
	Tiles map[string]int64
	// TrafficSeconds is the modelled memory→cache time per execution of
	// the block at full tile extents.
	TrafficSeconds float64
	// Executions is the number of times the block runs (the product of
	// its enclosing tiling-loop trip counts); TotalSeconds is Executions ×
	// TrafficSeconds.
	Executions   int64
	TotalSeconds float64
	// Synthesis carries the full lower-level artifact.
	Synthesis *core.Synthesis
}

// OptimizePlan chooses cache tiles for every compute block of a concrete
// plan, in plan order.
func OptimizePlan(plan *codegen.Plan, cache CacheConfig, seed int64) ([]BlockResult, error) {
	var out []BlockResult
	var walk func(ns []codegen.Node, execs int64) error
	walk = func(ns []codegen.Node, execs int64) error {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				trips := (n.Range + n.Tile - 1) / n.Tile
				if err := walk(n.Body, execs*trips); err != nil {
					return err
				}
			case *codegen.Compute:
				prog, err := BlockProgram(plan, n)
				if err != nil {
					return err
				}
				s, err := core.SynthesizeOpts(context.Background(), prog,
					core.WithMachine(cache.machineFor()),
					core.WithStrategy(core.DCS),
					core.WithSeed(seed),
					core.WithMaxEvals(40000),
				)
				if err != nil {
					return fmt.Errorf("cachetile: block %v: %w", n.Stmt.Out, err)
				}
				out = append(out, BlockResult{
					Statement:      n.Stmt.Out.Name,
					Tiles:          s.Assign.Tiles,
					TrafficSeconds: s.Predicted(),
					Executions:     execs,
					TotalSeconds:   float64(execs) * s.Predicted(),
					Synthesis:      s,
				})
			}
		}
		return nil
	}
	if err := walk(plan.Body, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// Breakdown renders the modelled time of each memory-hierarchy level for a
// disk-level synthesis whose compute blocks OptimizePlan tiled: disk I/O
// (the paper's cost model), memory↔cache traffic summed over every block
// execution, and arithmetic — and names the dominant level.
func Breakdown(s *core.Synthesis, blocks []BlockResult) string {
	diskS, computeS := s.Predicted(), s.ComputeSeconds()
	memoryS := 0.0
	for _, b := range blocks {
		memoryS += b.TotalSeconds
	}
	dominant, m := "disk I/O", diskS
	if memoryS > m {
		dominant, m = "memory traffic", memoryS
	}
	if computeS > m {
		dominant = "arithmetic"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  disk I/O:       %10.1f s\n", diskS)
	fmt.Fprintf(&b, "  memory↔cache:   %10.1f s\n", memoryS)
	fmt.Fprintf(&b, "  arithmetic:     %10.1f s\n", computeS)
	fmt.Fprintf(&b, "  dominant level: %s\n", dominant)
	return b.String()
}
