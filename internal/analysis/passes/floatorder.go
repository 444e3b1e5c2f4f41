package passes

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Floatorder flags float accumulation whose result depends on
// map-iteration or channel-receive order inside the deterministic
// packages. Floating-point addition is not associative, so
//
//	for _, v := range m { sum += v }
//
// produces different low bits on different runs — exactly the class of
// bug PR 3 fixed by hand in MultiOutcome.TotalPayment, and the one that
// would silently invalidate every golden-equivalence gate if it crept
// into a new mechanism's payment path. The fix is always the same:
// iterate a sorted key slice. Two shapes are order-independent and
// allowed: accumulators declared inside the loop body (per-iteration,
// reset each pass), and accumulation into a map indexed by the range's
// own key (`m[k] += v` inside `for k, v := range src` touches each key
// once, so order cannot matter). Integer accumulation is ignored. Test
// files are checked too: golden expectations built in map order corrupt
// the gates from the other side.
//
// The same holds for a goroutine fan-out. Float accumulation inside a
// `go` statement's function literal into a target declared outside the
// literal runs in goroutine completion order, exactly like draining a
// fan-in channel. Allowed there: accumulators local to the goroutine
// (declared in the literal, its parameters included), and plain writes
// of a result into an index-addressed slot, which a serial pass then
// reduces in index order.
var Floatorder = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "flags order-dependent float accumulation over maps, channels and goroutines in deterministic packages",
	Run:  runFloatorder,
}

func runFloatorder(pass *analysis.Pass) error {
	if !deterministic(pass.Pkg.Path()) {
		return nil
	}
	reported := map[token.Pos]bool{} // dedupe under nested map ranges
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoLiteral(pass, lit, reported)
				}
				return true
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			source := rangeOrderSource(pass, rng.X)
			if source == "" {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				lhs, op := floatAccumulation(pass, as)
				if lhs == nil || reported[as.Pos()] ||
					declaredWithin(pass, lhs, rng) || keyedByRangeKey(pass, lhs, rng) {
					return true
				}
				reported[as.Pos()] = true
				pass.Reportf(as.Pos(),
					"float %s accumulation in %s-iteration order is nondeterministic; iterate a sorted key slice (or accumulate integers) — see DESIGN.md \"Determinism invariants\"",
					op, source)
				return true
			})
			return true
		})
	}
	return nil
}

// checkGoLiteral reports float accumulation in a go statement's function
// literal whose target outlives the literal.
func checkGoLiteral(pass *analysis.Pass, lit *ast.FuncLit, reported map[token.Pos]bool) {
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		lhs, op := floatAccumulation(pass, as)
		if lhs == nil || reported[as.Pos()] || declaredWithin(pass, lhs, lit) {
			return true
		}
		reported[as.Pos()] = true
		pass.Reportf(as.Pos(),
			"float %s accumulation across goroutines runs in completion order, which is nondeterministic; accumulate per goroutine into an index-addressed slot and reduce in index order — see DESIGN.md \"Determinism invariants\"",
			op)
		return true
	})
}

// keyedByRangeKey reports whether the accumulation target is a map or
// slice element indexed by this range statement's own key variable —
// each key is visited exactly once per loop, so the update order cannot
// affect the result.
func keyedByRangeKey(pass *analysis.Pass, lhs ast.Expr, rng *ast.RangeStmt) bool {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	return sameObject(pass, idx.Index, key)
}

// rangeOrderSource classifies the ranged expression: "map" and "chan"
// (goroutine fan-in) have nondeterministic element order, everything
// else (slice, array, string, int, func iterator over a sorted source)
// returns "".
func rangeOrderSource(pass *analysis.Pass, x ast.Expr) string {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Chan:
		return "chan"
	}
	return ""
}

// floatAccumulation reports whether the assignment accumulates a float
// into its first LHS operand: either `x op= e` or `x = x op e` for a
// commutative-looking op whose result still depends on evaluation order
// in floating point. It returns the accumulated operand and the op's
// spelling, or nil.
func floatAccumulation(pass *analysis.Pass, as *ast.AssignStmt) (ast.Expr, string) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, ""
	}
	lhs := as.Lhs[0]
	if !isFloat(pass.TypesInfo.TypeOf(lhs)) {
		return nil, ""
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, as.Tok.String()
	case token.ASSIGN:
		// x = x + e (or e + x): the same accumulation, spelled long-hand.
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return nil, ""
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, ""
		}
		if sameObject(pass, lhs, bin.X) || sameObject(pass, lhs, bin.Y) {
			return lhs, bin.Op.String() + "="
		}
	}
	return nil, ""
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sameObject reports whether a and b are identifiers denoting the same
// declared object.
func sameObject(pass *analysis.Pass, a, b ast.Expr) bool {
	ai, aok := a.(*ast.Ident)
	bi, bok := b.(*ast.Ident)
	if !aok || !bok {
		return false
	}
	ao := pass.TypesInfo.ObjectOf(ai)
	return ao != nil && ao == pass.TypesInfo.ObjectOf(bi)
}

// declaredWithin reports whether the accumulated operand's base object
// is declared inside scope — a range statement (a per-iteration
// accumulator reset each pass) or a goroutine's function literal (a
// per-goroutine accumulator) — which is order-independent and allowed.
func declaredWithin(pass *analysis.Pass, lhs ast.Expr, scope ast.Node) bool {
	base := lhs
	for {
		switch e := base.(type) {
		case *ast.IndexExpr:
			base = e.X
			continue
		case *ast.SelectorExpr:
			base = e.X
			continue
		case *ast.ParenExpr:
			base = e.X
			continue
		case *ast.StarExpr:
			base = e.X
			continue
		}
		break
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() >= scope.Pos() && obj.Pos() <= scope.End()
}
