package codegen

import (
	"encoding/json"
	"fmt"

	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/placement"
)

// This file serializes concrete plans to JSON and back, so code can be
// synthesized once and executed elsewhere (or later) without re-running
// the solver. Buffers are referenced by index into the plan's buffer
// table; statements are stored structurally.

type planJSON struct {
	ProgramName string           `json:"program"`
	Ranges      map[string]int64 `json:"ranges"`
	ElemSize    int64            `json:"elem_size"`
	MemoryLimit int64            `json:"memory_limit"`
	Disk        machine.Disk     `json:"disk"`
	Tiles       map[string]int64 `json:"tiles"`
	Buffers     []bufferJSON     `json:"buffers"`
	DiskArrays  []DiskArray      `json:"disk_arrays"`
	Arrays      []arrayJSON      `json:"arrays"`
	Body        []nodeJSON       `json:"body"`
	Predicted   float64          `json:"predicted_io_seconds"`
	PredRead    float64          `json:"predicted_read_bytes"`
	PredWrite   float64          `json:"predicted_write_bytes"`
}

type arrayJSON struct {
	Name        string   `json:"name"`
	Indices     []string `json:"indices"`
	OrigIndices []string `json:"orig_indices"`
	Kind        int      `json:"kind"`
}

type bufferJSON struct {
	Name  string   `json:"name"`
	Array string   `json:"array"`
	Dims  []string `json:"dims"`    // index labels
	Class []int    `json:"classes"` // placement.ExtentClass per dim
}

type nodeJSON struct {
	Kind string `json:"kind"` // loop | io | zero | init | compute
	// loop
	Index string     `json:"index,omitempty"`
	Range int64      `json:"range,omitempty"`
	Tile  int64      `json:"tile,omitempty"`
	Body  []nodeJSON `json:"body,omitempty"`
	// io / zero / init
	Read   bool   `json:"read,omitempty"`
	Array  string `json:"array,omitempty"`
	Buffer int    `json:"buffer,omitempty"`
	// compute
	Intra   []string  `json:"intra,omitempty"`
	Out     int       `json:"out,omitempty"`
	Factors []int     `json:"factors,omitempty"`
	OutRef  *refJSON  `json:"out_ref,omitempty"`
	Refs    []refJSON `json:"refs,omitempty"`
}

type refJSON struct {
	Name    string   `json:"name"`
	Indices []string `json:"indices"`
}

// MarshalJSON serializes the plan.
func (p *Plan) MarshalJSON() ([]byte, error) {
	bufIdx := map[*Buffer]int{}
	out := planJSON{
		ProgramName: p.Prog.Name,
		Ranges:      p.Prog.Ranges,
		ElemSize:    p.Cfg.ElemSize,
		MemoryLimit: p.Cfg.MemoryLimit,
		Disk:        p.Cfg.Disk,
		Tiles:       p.Tiles,
		DiskArrays:  p.DiskArrays,
		Predicted:   p.Predicted,
		PredRead:    p.PredictedReadBytes,
		PredWrite:   p.PredictedWriteBytes,
	}
	for _, name := range p.Prog.Order {
		a := p.Prog.Arrays[name]
		out.Arrays = append(out.Arrays, arrayJSON{
			Name: a.Name, Indices: a.Indices, OrigIndices: a.OrigIndices, Kind: int(a.Kind),
		})
	}
	for i, b := range p.Buffers {
		bufIdx[b] = i
		bj := bufferJSON{Name: b.Name, Array: b.Array}
		for _, d := range b.Dims {
			bj.Dims = append(bj.Dims, d.Index)
			bj.Class = append(bj.Class, int(d.Class))
		}
		out.Buffers = append(out.Buffers, bj)
	}
	var err error
	out.Body, err = nodesToJSON(p.Body, bufIdx)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(out, "", " ")
}

func nodesToJSON(ns []Node, bufIdx map[*Buffer]int) ([]nodeJSON, error) {
	var out []nodeJSON
	for _, n := range ns {
		switch n := n.(type) {
		case *Loop:
			body, err := nodesToJSON(n.Body, bufIdx)
			if err != nil {
				return nil, err
			}
			out = append(out, nodeJSON{Kind: "loop", Index: n.Index, Range: n.Range, Tile: n.Tile, Body: body})
		case *IO:
			out = append(out, nodeJSON{Kind: "io", Read: n.Read, Array: n.Array, Buffer: bufIdx[n.Buffer]})
		case *ZeroBuf:
			out = append(out, nodeJSON{Kind: "zero", Buffer: bufIdx[n.Buffer]})
		case *InitPass:
			out = append(out, nodeJSON{Kind: "init", Array: n.Array})
		case *Compute:
			nj := nodeJSON{
				Kind:   "compute",
				Intra:  n.Intra,
				Out:    bufIdx[n.Out],
				OutRef: &refJSON{Name: n.Stmt.Out.Name, Indices: n.Stmt.Out.Indices},
			}
			for i, f := range n.Factors {
				nj.Factors = append(nj.Factors, bufIdx[f])
				nj.Refs = append(nj.Refs, refJSON{Name: n.Stmt.Factors[i].Name, Indices: n.Stmt.Factors[i].Indices})
			}
			out = append(out, nj)
		default:
			return nil, fmt.Errorf("codegen: unknown node %T", n)
		}
	}
	return out, nil
}

// UnmarshalPlan reconstructs a plan from its JSON form.
func UnmarshalPlan(data []byte) (*Plan, error) {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	prog := loops.NewProgram(in.ProgramName, in.Ranges)
	prog.ElemSize = in.ElemSize
	for _, a := range in.Arrays {
		// DeclareArray panics on both, but a saved plan comes from
		// outside the program.
		if _, dup := prog.Arrays[a.Name]; dup {
			return nil, fmt.Errorf("codegen: array %q declared twice", a.Name)
		}
		for _, x := range a.OrigIndices {
			if _, ok := in.Ranges[x]; !ok {
				return nil, fmt.Errorf("codegen: index %q of array %q has no range", x, a.Name)
			}
		}
		da := prog.DeclareArray(a.Name, loops.Kind(a.Kind), a.OrigIndices...)
		da.Indices = a.Indices
	}
	p := &Plan{
		Prog: prog,
		Cfg: machine.Config{
			Name:        in.ProgramName,
			MemoryLimit: in.MemoryLimit,
			ElemSize:    in.ElemSize,
			Disk:        in.Disk,
		},
		Tiles:               in.Tiles,
		DiskArrays:          in.DiskArrays,
		Predicted:           in.Predicted,
		PredictedReadBytes:  in.PredRead,
		PredictedWriteBytes: in.PredWrite,
	}
	for _, bj := range in.Buffers {
		b := &Buffer{Name: bj.Name, Array: bj.Array}
		if len(bj.Dims) != len(bj.Class) {
			return nil, fmt.Errorf("codegen: buffer %q dims/classes mismatch", bj.Name)
		}
		for i, idx := range bj.Dims {
			b.Dims = append(b.Dims, placement.BufDim{Index: idx, Class: placement.ExtentClass(bj.Class[i])})
		}
		b.MaxElems = maxElems(b.Dims, in.Tiles, in.Ranges)
		p.Buffers = append(p.Buffers, b)
	}
	var err error
	p.Body, err = nodesFromJSON(in.Body, p.Buffers)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: deserialized plan invalid: %w", err)
	}
	return p, nil
}

func nodesFromJSON(ns []nodeJSON, bufs []*Buffer) ([]Node, error) {
	buf := func(i int) (*Buffer, error) {
		if i < 0 || i >= len(bufs) {
			return nil, fmt.Errorf("codegen: buffer index %d out of range", i)
		}
		return bufs[i], nil
	}
	var out []Node
	for _, n := range ns {
		switch n.Kind {
		case "loop":
			body, err := nodesFromJSON(n.Body, bufs)
			if err != nil {
				return nil, err
			}
			out = append(out, &Loop{Index: n.Index, Range: n.Range, Tile: n.Tile, Body: body})
		case "io":
			b, err := buf(n.Buffer)
			if err != nil {
				return nil, err
			}
			out = append(out, &IO{Read: n.Read, Array: n.Array, Buffer: b})
		case "zero":
			b, err := buf(n.Buffer)
			if err != nil {
				return nil, err
			}
			out = append(out, &ZeroBuf{Buffer: b})
		case "init":
			out = append(out, &InitPass{Array: n.Array})
		case "compute":
			ob, err := buf(n.Out)
			if err != nil {
				return nil, err
			}
			if n.OutRef == nil || len(n.Refs) != len(n.Factors) {
				return nil, fmt.Errorf("codegen: malformed compute node")
			}
			stmt := &loops.Stmt{Out: expr.Ref{Name: n.OutRef.Name, Indices: n.OutRef.Indices}}
			cmp := &Compute{Stmt: stmt, Intra: n.Intra, Out: ob}
			for i, fi := range n.Factors {
				fb, err := buf(fi)
				if err != nil {
					return nil, err
				}
				cmp.Factors = append(cmp.Factors, fb)
				stmt.Factors = append(stmt.Factors, expr.Ref{Name: n.Refs[i].Name, Indices: n.Refs[i].Indices})
			}
			out = append(out, cmp)
		default:
			return nil, fmt.Errorf("codegen: unknown node kind %q", n.Kind)
		}
	}
	return out, nil
}
