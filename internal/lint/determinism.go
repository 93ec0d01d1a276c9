package lint

// Determinism analyzers. The synthesis pipeline is reproducible only
// because the whole stack is deterministic: the same seeds must yield
// bit-identical plans (even under the racing portfolio), and the
// telemetry plane's "live scrape == end-of-run snapshot" invariant is
// a string equality. These analyzers enforce the two classic ways that
// property silently dies — reading the wall clock on a deterministic
// path, and seeding a RNG from anything but an explicit seed.

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of their inputs: the solver's lane stepping, the execution
// engines' modelled timeline, and the placement/NLP model that the
// plans derive from. Wall-clock reads reachable from these packages
// are findings; the sanctioned telemetry layer (wallClockAllowed in
// facts.go) never propagates taint.
var deterministicPkgs = map[string]bool{
	"internal/dcs":       true,
	"internal/exec":      true,
	"internal/placement": true,
	"internal/nlp":       true,
}

// relPkgPath strips the module path off a package's import path so it
// can be compared with the module-relative paths analyzers use.
func (f *Facts) relPkgPath(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if f.modPath != "" {
		path = strings.TrimPrefix(strings.TrimPrefix(path, f.modPath), "/")
	}
	return path
}

// WallTime flags wall-clock reads (time.Now, time.Since, timers,
// tickers, sleeps) that are reachable from the deterministic packages,
// either directly or through the module call graph. Calls into the
// sanctioned telemetry layer are exempt: event logs and samplers stamp
// wall time by design; plans and modelled timelines must never read
// it. Test files are exempt (they may time themselves).
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "no wall-clock reads reachable from deterministic packages (dcs, exec, placement, nlp)",
	Run: func(p *Pass) {
		if !deterministicPkgs[p.PkgPath] {
			return
		}
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					cf := callee(p.Info, call)
					if cf == nil || cf.Pkg() == nil {
						return true
					}
					if cf.Pkg().Path() == "time" && wallClockFns[cf.Name()] {
						p.Reportf(f, call.Pos(),
							"wall-clock call time.%s on a deterministic path; plans and modelled timelines must not read real time", cf.Name())
						return true
					}
					rel := p.Facts.relPkgPath(cf.Pkg())
					if deterministicPkgs[rel] || wallClockAllowed[rel] {
						// In-zone taint is reported once, at the edge
						// where it enters the zone; telemetry calls are
						// sanctioned wall-clock users.
						return true
					}
					if chain, _, ok := p.Facts.WallClock(funcKey(cf)); ok {
						p.Reportf(f, call.Pos(),
							"wall clock reachable from deterministic path: %s", chain)
					}
					return true
				})
			}
		}
	},
}

// randPkgs are the math/rand package variants.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// randConstructors take an explicit seed (or source) and are the only
// sanctioned way to make a RNG.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

// RngSeed enforces that every RNG is explicitly and deterministically
// seeded: rand.NewSource/NewPCG arguments must not derive from the
// wall clock or an entropy source, and the implicitly-seeded global
// math/rand functions (rand.Intn, rand.Shuffle, rand.Seed, ...) are
// banned outright. Test files are exempt.
var RngSeed = &Analyzer{
	Name: "rngseed",
	Doc:  "RNGs are seeded from explicit seed parameters, never the wall clock or the global rand",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var fl *flow // built lazily: most functions touch no RNG
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					cf := callee(p.Info, call)
					if cf == nil || cf.Pkg() == nil || !randPkgs[cf.Pkg().Path()] {
						return true
					}
					sig, _ := cf.Type().(*types.Signature)
					if sig == nil || sig.Recv() != nil {
						return true // methods on *rand.Rand are fine: the source was vetted at construction
					}
					if !randConstructors[cf.Name()] {
						p.Reportf(f, call.Pos(),
							"global %s.%s is implicitly seeded; construct a rand.New(rand.NewSource(seed)) from an explicit seed", cf.Pkg().Name(), cf.Name())
						return true
					}
					if fl == nil {
						fl = newFlow(p.Info, fd.Body)
					}
					for _, arg := range call.Args {
						if t := fl.sources(arg); t&taintNondet != 0 {
							p.Reportf(f, arg.Pos(),
								"RNG seed derives from the wall clock or an entropy source; thread an explicit seed parameter instead")
						}
					}
					return true
				})
			}
		}
	},
}
