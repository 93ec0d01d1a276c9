package placement

import (
	"fmt"
	"strings"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tiling"
)

// ExtentClass classifies one dimension of an in-memory buffer at a
// placement position.
type ExtentClass int

const (
	// ExtOne: the dimension's intra-tile loop is above the position; the
	// buffer holds a single element along it.
	ExtOne ExtentClass = iota
	// ExtTile: the tiling loop is above but the intra-tile loop below; the
	// buffer holds one tile (T_x elements).
	ExtTile
	// ExtFull: both loops are below; the buffer spans the full range N_x.
	ExtFull
)

// BufDim is one dimension of a buffer: the index label and its extent
// class at the chosen position.
type BufDim struct {
	Index string
	Class ExtentClass
}

// BufferSpec describes an in-memory buffer: its dimensions and its size in
// bytes as a symbolic term.
type BufferSpec struct {
	Dims  []BufDim
	Bytes Term
}

// String renders the buffer in the paper's notation, e.g. "A[iI,j]".
func (b BufferSpec) String() string {
	var parts []string
	for _, d := range b.Dims {
		switch d.Class {
		case ExtOne:
			parts = append(parts, "1")
		case ExtTile:
			parts = append(parts, d.Index+"I")
		case ExtFull:
			parts = append(parts, d.Index)
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Position identifies a candidate I/O placement: Depth entries of the
// statement's extended path lie above the I/O statement.
type Position struct {
	Site  tiling.LeafSite
	Depth int
	Label string
}

// IOPlacement is a candidate disk read or write with its symbolic costs:
// Buf is the in-memory buffer, Bytes the total bytes moved over the whole
// computation, Ops the number of I/O operations.
type IOPlacement struct {
	Pos   Position
	Buf   BufferSpec
	Bytes Term
	Ops   Term
	// Redundant lists the loops above the position that do not index the
	// array (they multiply the I/O volume; for writes they force
	// read-modify-write).
	Redundant []tiling.PathEntry
}

// Candidate is one choice of I/O strategy for an array occurrence.
type Candidate struct {
	Array string
	// InMemory: the intermediate is kept entirely in memory (no disk I/O).
	InMemory bool
	// MemBuf is the in-memory buffer of an InMemory intermediate.
	MemBuf *BufferSpec
	// Read is the consumer-side read (inputs, disk intermediates) or nil.
	Read *IOPlacement
	// Write is the producer-side write (outputs, disk intermediates) or nil.
	Write *IOPlacement
	// RMWRead: a redundant loop surrounds the write, so each written tile
	// must first be read back (read-modify-write). The read shares the
	// write buffer and has the write's cost terms.
	RMWRead bool
	// InitZero: the disk array must be written once with zeros before the
	// computation (needed with RMWRead); holds the cost of that pass.
	InitZero *IOPlacement
	Label    string
	// Terms is the candidate's cost model, priced once at enumeration
	// and read by the solver, the lower bound, code generation, reports
	// and the AMPL export. Disk terms come first, in Kind order, then
	// the Memory terms, then the Block terms.
	Terms []Priced
}

// Kind says what a priced term counts and how Kind.Price turns its raw
// product into its contribution.
type Kind uint8

const (
	ReadBytes  Kind = iota // bytes read ÷ read bandwidth (seconds)
	WriteBytes             // bytes written ÷ write bandwidth (seconds)
	ReadOps                // read operations × seek time (seconds)
	WriteOps               // write operations × seek time (seconds)
	Memory                 // buffer bytes, as is
	Block                  // relative shortfall of a buffer below the minimum block
)

// Priced is one term of a candidate's cost model with the scale its kind
// prices it by: a bandwidth, the seek time, or the minimum block bytes
// clamped to the array's size (0 for Memory).
type Priced struct {
	Term
	Kind  Kind
	Scale float64
}

// Price returns the contribution of a term of kind k whose raw product
// is v: I/O seconds for the four disk kinds, bytes for Memory, and for
// Block the relative shortfall of v below the minimum block scale.
func (k Kind) Price(v, scale float64) float64 {
	switch k {
	case ReadBytes, WriteBytes:
		return v / scale
	case ReadOps, WriteOps:
		return float64(v * scale) // never fused into a caller's sum
	case Block:
		return max(scale-v, 0) / scale
	}
	return v
}

// Moved returns the bytes the candidate reads and writes at the tile
// sizes tiles (both tiles and ranges indexed by tile-variable position,
// so a decision vector of nlp, tile sizes first, serves as tiles).
func (c *Candidate) Moved(tiles, ranges []int64) (read, write float64) {
	for _, t := range c.Terms {
		switch t.Kind {
		case ReadBytes:
			read += t.Eval(tiles, ranges)
		case WriteBytes:
			write += t.Eval(tiles, ranges)
		}
	}
	return read, write
}

// LowerBoundSeconds returns an analytic lower bound on the candidate's
// modelled I/O time over all tile assignments (Term.LowerBound priced
// for every disk term). A candidate whose bound exceeds a known
// solution's total objective can never appear in a better solution: the
// objective is a sum of non-negative per-choice costs.
func (c *Candidate) LowerBoundSeconds(ranges []int64) float64 {
	total := 0.0
	for _, t := range c.Terms {
		if t.Kind < Memory {
			total += t.Kind.Price(t.LowerBound(ranges), t.Scale)
		}
	}
	return total
}

// Choice is the set of candidates for one array occurrence; exactly one
// candidate must be selected.
type Choice struct {
	// Name identifies the occurrence ("A", or "A@2" when an input is read
	// at several statements).
	Name       string
	Array      *loops.Array
	Candidates []Candidate
}

// Model is the fully enumerated placement space of a tiled program.
type Model struct {
	Prog    *loops.Program
	Tree    *tiling.Tree
	Cfg     machine.Config
	Choices []Choice
	// TileVars are the sorted distinct loop indices; a Term's factors
	// are positions in it. Ranges[i] is the full range of TileVars[i].
	TileVars []string
	Ranges   []int64
	// BoundPruned counts candidates discarded by the incumbent lower-bound
	// filter (Options.BoundIncumbent).
	BoundPruned int
}

// Options control the enumeration.
type Options struct {
	// DisableDominancePruning keeps candidates that are dominated (equal
	// or worse I/O bytes and buffer size than another candidate); used by
	// the ablation benchmarks.
	DisableDominancePruning bool
	// BoundIncumbent, when positive, is the objective (seconds) of a known
	// feasible solution: candidates whose analytic cost lower bound
	// already exceeds it are pruned during enumeration, shrinking the
	// cross-product search space of incremental re-solves. Each choice
	// always keeps at least its cheapest-bound candidate.
	BoundIncumbent float64
}

// Enumerate runs the candidate-placement enumeration of Sec. 4.1 over a
// tiled program.
func Enumerate(tree *tiling.Tree, cfg machine.Config, opt Options) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := tree.Prog
	m := &Model{Prog: p, Tree: tree, Cfg: cfg, TileVars: p.SortedIndices()}
	e := enumerator{p: p, cfg: cfg, opt: opt, pos: map[string]int{}}
	for i, x := range m.TileVars {
		e.pos[x] = i
		m.Ranges = append(m.Ranges, p.Ranges[x])
	}
	e.ranges = m.Ranges
	leaves := tree.Leaves()

	producers := map[string][]tiling.LeafSite{}
	consumers := map[string][]tiling.LeafSite{}
	for _, ls := range leaves {
		producers[ls.Leaf.Stmt.Out.Name] = append(producers[ls.Leaf.Stmt.Out.Name], ls)
		seen := map[string]bool{}
		for _, f := range ls.Leaf.Stmt.Factors {
			if !seen[f.Name] {
				seen[f.Name] = true
				consumers[f.Name] = append(consumers[f.Name], ls)
			}
		}
	}

	for _, name := range p.Order {
		arr := p.Arrays[name]
		switch arr.Kind {
		case loops.Input:
			for i, site := range consumers[name] {
				cname := name
				if len(consumers[name]) > 1 {
					cname = fmt.Sprintf("%s@%d", name, i)
				}
				ch, err := e.inputChoice(cname, arr, site)
				if err != nil {
					return nil, err
				}
				e.add(m, ch)
			}
		case loops.Output:
			if len(producers[name]) == 0 {
				return nil, fmt.Errorf("placement: output %q is never produced", name)
			}
			multi := len(producers[name]) > 1
			for i, site := range producers[name] {
				cname := name
				if multi {
					cname = fmt.Sprintf("%s@%d", name, i)
				}
				ch, err := e.outputChoice(cname, arr, site, multi, i == 0)
				if err != nil {
					return nil, err
				}
				ch.Name = cname
				e.add(m, ch)
			}
		case loops.Intermediate:
			if len(producers[name]) != 1 || len(consumers[name]) != 1 {
				return nil, fmt.Errorf("placement: intermediate %q needs exactly one producer and one consumer statement", name)
			}
			ch, err := e.intermediateChoice(name, arr, producers[name][0], consumers[name][0])
			if err != nil {
				return nil, err
			}
			e.add(m, ch)
		}
	}
	return m, nil
}

// String renders the model in the style of Fig. 4(a).
func (m *Model) String() string {
	var b strings.Builder
	for _, ch := range m.Choices {
		fmt.Fprintf(&b, "%s (%s):\n", ch.Name, ch.Array.Kind)
		for i, c := range ch.Candidates {
			fmt.Fprintf(&b, "  [%d] %s\n", i, c.Describe(m.TileVars))
		}
	}
	return b.String()
}

// Describe renders one candidate compactly, vars naming the tile
// variables.
func (c *Candidate) Describe(vars []string) string {
	if c.InMemory {
		return fmt.Sprintf("in memory, buffer %s%s = %s", c.Array, c.MemBuf, c.MemBuf.Bytes.String(vars))
	}
	var parts []string
	if c.Read != nil {
		parts = append(parts, fmt.Sprintf("read %s, buffer %s%s", c.Read.Pos.Label, c.Array, c.Read.Buf))
	}
	if c.Write != nil {
		w := fmt.Sprintf("write %s, buffer %s%s", c.Write.Pos.Label, c.Array, c.Write.Buf)
		if c.RMWRead {
			w += ", read required"
		}
		parts = append(parts, w)
	}
	return strings.Join(parts, "; ")
}
