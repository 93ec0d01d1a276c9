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
}

// ReadBytes returns the symbolic byte counts of all reads this candidate
// performs.
func (c *Candidate) ReadBytes() []Term {
	var out []Term
	if c.Read != nil {
		out = append(out, c.Read.Bytes)
	}
	if c.RMWRead {
		out = append(out, c.Write.Bytes)
	}
	return out
}

// WriteBytes returns the symbolic byte counts of all writes.
func (c *Candidate) WriteBytes() []Term {
	var out []Term
	if c.Write != nil {
		out = append(out, c.Write.Bytes)
	}
	if c.InitZero != nil {
		out = append(out, c.InitZero.Bytes)
	}
	return out
}

// ReadOps and WriteOps return the symbolic operation counts.
func (c *Candidate) ReadOps() []Term {
	var out []Term
	if c.Read != nil {
		out = append(out, c.Read.Ops)
	}
	if c.RMWRead {
		out = append(out, c.Write.Ops)
	}
	return out
}

func (c *Candidate) WriteOps() []Term {
	var out []Term
	if c.Write != nil {
		out = append(out, c.Write.Ops)
	}
	if c.InitZero != nil {
		out = append(out, c.InitZero.Ops)
	}
	return out
}

// MemBytes returns the symbolic sizes of all buffers the candidate
// allocates (the static memory model sums them over all arrays).
func (c *Candidate) MemBytes() []Term {
	var out []Term
	if c.MemBuf != nil {
		out = append(out, c.MemBuf.Bytes)
	}
	if c.Read != nil {
		out = append(out, c.Read.Buf.Bytes)
	}
	if c.Write != nil {
		out = append(out, c.Write.Buf.Bytes) // shared with the RMW read
	}
	return out
}

// BlockConstraints returns (buffer, isRead) pairs that must satisfy the
// machine's minimum I/O block sizes when this candidate is selected.
func (c *Candidate) BlockConstraints() []BlockConstraint {
	var out []BlockConstraint
	if c.Read != nil {
		out = append(out, BlockConstraint{Buf: c.Read.Buf.Bytes, IsRead: true})
	}
	if c.Write != nil {
		out = append(out, BlockConstraint{Buf: c.Write.Buf.Bytes, IsRead: false})
		if c.RMWRead {
			out = append(out, BlockConstraint{Buf: c.Write.Buf.Bytes, IsRead: true})
		}
	}
	return out
}

// BlockConstraint requires a buffer to be at least the minimum read or
// write block size.
type BlockConstraint struct {
	Buf    Term
	IsRead bool
}

// LowerBoundSeconds returns an analytic lower bound on the candidate's
// modelled I/O time over all tile assignments (Term.LowerBound applied to
// every cost term). A candidate whose bound exceeds a known solution's
// total objective can never appear in a better solution: the objective is
// a sum of non-negative per-choice costs.
func (c *Candidate) LowerBoundSeconds(ranges map[string]int64, cfg machine.Config) float64 {
	d := cfg.Disk
	total := 0.0
	for _, t := range c.ReadBytes() {
		total += t.LowerBound(ranges) / d.ReadBandwidth
	}
	for _, t := range c.WriteBytes() {
		total += t.LowerBound(ranges) / d.WriteBandwidth
	}
	for _, t := range c.ReadOps() {
		total += float64(t.LowerBound(ranges) * d.SeekTime)
	}
	for _, t := range c.WriteOps() {
		total += float64(t.LowerBound(ranges) * d.SeekTime)
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
	Prog     *loops.Program
	Tree     *tiling.Tree
	Cfg      machine.Config
	Choices  []Choice
	TileVars []string // sorted distinct loop indices
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

	e := enumerator{p: p, cfg: cfg, opt: opt}
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
				m.Choices = append(m.Choices, e.boundFilter(ch, &m.BoundPruned))
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
				m.Choices = append(m.Choices, e.boundFilter(ch, &m.BoundPruned))
			}
		case loops.Intermediate:
			if len(producers[name]) != 1 || len(consumers[name]) != 1 {
				return nil, fmt.Errorf("placement: intermediate %q needs exactly one producer and one consumer statement", name)
			}
			ch, err := e.intermediateChoice(name, arr, producers[name][0], consumers[name][0])
			if err != nil {
				return nil, err
			}
			m.Choices = append(m.Choices, e.boundFilter(ch, &m.BoundPruned))
		}
	}
	return m, nil
}

// PlacementVarCount returns the total number of binary λ variables needed
// for the model with the paper's ⌈log2(m)⌉-per-array encoding.
func (m *Model) PlacementVarCount() int {
	n := 0
	for _, ch := range m.Choices {
		n += lambdaBits(len(ch.Candidates))
	}
	return n
}

func lambdaBits(m int) int {
	if m <= 1 {
		return 0
	}
	bits := 0
	for (1 << bits) < m {
		bits++
	}
	return bits
}

// String renders the model in the style of Fig. 4(a).
func (m *Model) String() string {
	var b strings.Builder
	for _, ch := range m.Choices {
		fmt.Fprintf(&b, "%s (%s):\n", ch.Name, ch.Array.Kind)
		for i, c := range ch.Candidates {
			fmt.Fprintf(&b, "  [%d] %s\n", i, c.Describe())
		}
	}
	return b.String()
}

// Describe renders one candidate compactly.
func (c *Candidate) Describe() string {
	if c.InMemory {
		return fmt.Sprintf("in memory, buffer %s%s = %s", c.Array, c.MemBuf, c.MemBuf.Bytes)
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
