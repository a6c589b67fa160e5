// Package nondeterminism guards the replay-determinism contract of the
// solver's deterministic packages (core, exchange, balance, dsmc, pic,
// diag): identical seeded runs must produce byte-identical communication
// and physics state, because checkpoint/restart recovery and the
// PerturbDelivery failure-injection tests both assume exact replay.
//
// Three sources of silent divergence are flagged:
//
//  1. Wall-clock reads — time.Now()/time.Since() calls. Timing must enter
//     these packages through an injected clock (see balance.Clock), so
//     tests can pin it; the default wiring assigns the time.Now *function
//     value* at construction, which this analyzer deliberately permits.
//  2. The global math/rand source — rand.Intn, rand.Float64, rand.Seed,
//     etc. share cross-goroutine state and are unseedable per rank. Local
//     generators (rand.New(rand.NewSource(seed)), internal/rng) are fine.
//  3. Map iteration feeding order-sensitive state — ranging over a map
//     while (a) calling Comm methods, (b) appending to a slice, or (c)
//     accumulating floats into a loop-invariant location. Go randomizes
//     map order per iteration, so any of these makes traffic or float
//     state differ between identical runs. Order-insensitive bodies
//     (integer accumulation keyed by the range key) are not flagged.
//
// Packages are selected by import-path base; code elsewhere (cmd/plasmad,
// the webui) may use wall-clock time freely.
package nondeterminism

import (
	"go/ast"
	"go/types"
	"path"

	"github.com/plasma-hpc/dsmcpic/internal/analysis"
	"github.com/plasma-hpc/dsmcpic/internal/analyzers/astq"
)

// Analyzer is the nondeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc:  "flag wall-clock reads, global math/rand use, and order-sensitive map iteration in the deterministic solver packages",
	Run:  run,
}

// deterministicPkgs names the packages whose state must replay exactly.
// partition and commcost joined the set when the serving subsystem made
// their outputs part of the cached-result contract: the initial
// decomposition (partition) and the modeled times (commcost) both feed
// bytes that must be identical across replays of one job spec.
var deterministicPkgs = map[string]bool{
	"core":      true,
	"exchange":  true,
	"balance":   true,
	"dsmc":      true,
	"pic":       true,
	"diag":      true,
	"partition": true,
	"commcost":  true,
	// parallel chunks the kernels' index ranges across worker goroutines;
	// its fixed decomposition (Bounds) is what lets the kernels apply
	// per-chunk results in index order, keeping replay byte-identical for
	// a fixed seed at every worker count.
	"parallel": true,
	// store journals jobs and persists results; recovery must reproduce
	// the same on-disk state from the same operation sequence (LRU
	// eviction order, index contents), so its clock is injected
	// (Options.Clock) and its eviction order is a logical sequence, not
	// wall time.
	"store": true,
	// experiments drives seeded convergence/validation studies whose
	// tables are compared across runs; bench emits timing *measurements*
	// (which are wall-clock by nature) but its workload construction must
	// replay exactly, so both route time through an injectable function
	// value (var now = time.Now).
	"experiments": true,
	"bench":       true,
	// cluster routes submissions by rendezvous-hashing the canonical spec
	// key; every router replica must map a key to the same shard and emit
	// metrics/health in the same order, so its clock is injected
	// (Options.Clock) and shard/metric iteration is fixed slice order or
	// sorted keys.
	"cluster": true,
	// scenario produces the canonical spec key and the core.Config every
	// plume run is built from; replaying a cached result is sound only if
	// one spec always yields the same key bytes and the same config.
	"scenario": true,
	// simmpi is the transport every deterministic package speaks through;
	// its last wall-clock consumer (the deadlock detector's deadline) now
	// reads an injected clock (Options.Clock), so the whole package holds
	// the same contract it enforces for its callers.
	"simmpi": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions backed by the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Uint": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Key on the import-path base, not the package name: command packages
	// (cmd/bench) are all named "main", and test variants carry a
	// " [pkg.test]" suffix on the path.
	if !deterministicPkgs[path.Base(analysis.TrimTestVariant(pass.Pkg.Path()))] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, x)
			case *ast.RangeStmt:
				checkMapRange(pass, x)
			}
			return true
		})
	}
	return nil, nil
}

// pkgFunc resolves a call to (package path, function name) if the callee
// is a package-level function of another package.
func pkgFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if info.Selections[sel] != nil {
		return "", "" // method or field, not a package-qualified func
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkgPath, name := pkgFunc(pass.TypesInfo, call)
	// Name the package by import-path base so command packages read as
	// "bench", not "main".
	base := path.Base(analysis.TrimTestVariant(pass.Pkg.Path()))
	switch {
	case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.Reportf(call.Pos(), "time.%s read in deterministic package %s; inject a clock (cf. balance.Clock) so replays and tests can pin it", name, base)
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
		pass.Reportf(call.Pos(), "global rand.%s in deterministic package %s; use a per-rank seeded generator (internal/rng or rand.New)", name, base)
	}
}

// checkMapRange flags order-sensitive map iteration.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if m := astq.CommMethod(pass.TypesInfo, x); m != "" {
				pass.Reportf(x.Pos(), "Comm.%s inside map iteration: message order would follow randomized map order; iterate sorted keys", m)
				return true
			}
			if isBuiltinAppend(pass.TypesInfo, x) && !appendsBareKey(pass.TypesInfo, x, rng) {
				pass.Reportf(x.Pos(), "append inside map iteration: element order would follow randomized map order; iterate sorted keys")
			}
		case *ast.AssignStmt:
			checkFloatAccum(pass, x, loopVars)
		}
		return true
	})
}

// appendsBareKey reports whether call is `append(s, k)` where k is exactly
// the range key — the first half of the canonical collect-keys-then-sort
// idiom, which is the *fix* for order-sensitive iteration and must not be
// flagged. Appending values (or anything derived from them) stays flagged:
// a value slice built in map order rarely gets re-sorted meaningfully.
func appendsBareKey(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	return keyObj != nil && info.Uses[arg] == keyObj
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// checkFloatAccum flags compound float accumulation (s += v) whose target
// is the same location every iteration: float addition is not associative,
// so the sum's bits depend on map order. Accumulation indexed by the range
// key (m[k] += v) touches a distinct location per iteration and is exempt.
func checkFloatAccum(pass *analysis.Pass, as *ast.AssignStmt, loopVars map[types.Object]bool) {
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
	default:
		return
	}
	for _, lhs := range as.Lhs {
		if !astq.IsFloat(pass.TypesInfo.TypeOf(lhs)) {
			continue
		}
		usesLoopVar := false
		ast.Inspect(lhs, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && loopVars[obj] {
					usesLoopVar = true
				}
			}
			return !usesLoopVar
		})
		if !usesLoopVar {
			pass.Reportf(as.Pos(), "floating-point accumulation over map iteration order is not replayable (float addition is order-sensitive); iterate sorted keys")
		}
	}
}
