package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the engine's reproducibility contract in the
// simulation core: every run is a pure function of its seed, so the
// packages on the virtual clock must not read wall-clock time, must not
// draw from the process-global math/rand source (only seeded *rand.Rand
// instances owned by a Sim), and must not let map iteration order reach
// ordered output. Map ranges whose results are provably
// order-independent (accumulating into sums, sets or other commutative
// sinks) are annotated //repolint:ordered <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, the global math/rand source, and " +
		"unannotated map iteration in the deterministic simulation packages",
	Scope: []string{
		"repro/internal/sim",
		"repro/internal/core",
		"repro/internal/netem",
		"repro/internal/scenario",
		// Sketch and sample merges must not depend on order, or the
		// population tables would differ across -jobs values.
		"repro/internal/metrics",
	},
	Run: runDeterminism,
}

// wallClockFuncs are the package time functions that read the real
// clock (Since/Until call Now internally).
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand package-level functions that build
// seeded generators instead of drawing from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ordered := orderedDirectiveLines(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, ordered)
			}
			return true
		})
	}
	return nil
}

// orderedDirectiveLines collects the source lines carrying a
// //repolint:ordered directive in file.
func orderedDirectiveLines(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, g := range file.Comments {
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok && d.Verb == VerbOrdered {
				lines[lineOf(pass.Fset, d.Pos)] = true
			}
		}
	}
	return lines
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; simulation code must use the virtual clock (sim.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "%s.%s draws from the global math/rand source; use the Sim's seeded *rand.Rand", fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, ordered map[int]bool) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// The escape hatch trails the range line or immediately precedes
	// it. A directive with a missing reason still suppresses this
	// report — the directives analyzer flags the malformed escape, so
	// the build fails either way with a single clear finding.
	line := lineOf(pass.Fset, rs.Pos())
	if ordered[line] || ordered[line-1] {
		return
	}
	pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and may reach ordered output; iterate a sorted or interned key list, or annotate //repolint:ordered <reason>")
}
