package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEqAnalyzer flags exact equality between computed floating-point
// values. One float == in verifier or sampling code silently changes
// acceptance decisions across platforms and optimization levels.
// Comparisons where either operand is a compile-time constant are
// allowed: sentinel checks like cfg.TopP == 0 test a value that was
// stored exactly, which is well-defined.
var FloatEqAnalyzer = &Analyzer{
	Name: "floateq",
	Doc: "flag ==/!= between computed floating-point operands (constant-operand " +
		"sentinel checks are allowed); compare with a tolerance, e.g. tensor.ApproxEq",
	Run: runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, ty := p.Info.Types[be.X], p.Info.Types[be.Y]
			if !isFloat(tx.Type) && !isFloat(ty.Type) {
				return true
			}
			if tx.Value != nil || ty.Value != nil {
				return true // one side is an exactly-stored constant sentinel
			}
			p.Reportf(be.OpPos,
				"floating-point %s between computed values; compare with a tolerance (e.g. tensor.ApproxEq)", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
