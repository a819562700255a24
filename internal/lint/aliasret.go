package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AliasRetAnalyzer generalizes the best-first grower's scratch-aliasing
// bug: an exported function or method must not return a slice that
// windows into storage the receiver (or a parameter) keeps — the caller
// holds the result across later calls, and the next reuse of the
// underlying buffer silently rewrites it. Flagged shapes: returning a
// slice expression over a field-rooted chain (`return s.buf[:n]`),
// returning a local that was assigned such a window (or was itself
// stored into a field, making the field an alias of it), and returning a
// field whose name marks it as scratch. A plain `return s.items` getter
// is allowed — exposing a stored slice is an API choice, not a reuse
// hazard — and results built with append/make/clone are always clean.
var AliasRetAnalyzer = &Analyzer{
	Name: "aliasret",
	Doc: "exported functions must not return slices aliasing struct-held scratch " +
		"storage; copy with append([]T(nil), s...) before returning",
	Run: runAliasRet,
}

func runAliasRet(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkAliasRet(p, fn)
		}
	}
}

func checkAliasRet(p *Pass, fn *ast.FuncDecl) {
	roots := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					roots[obj] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)

	// Taint locals that alias root-held storage: assigned from a
	// field-rooted expression, or stored into a field so the field now
	// aliases them. Iterate to a fixpoint for taint-through-taint chains.
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				rhs := as.Rhs[i]
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if fieldBacked(p, rhs, roots, tainted) {
						obj := p.Info.Defs[id]
						if obj == nil {
							obj = p.Info.Uses[id]
						}
						if obj != nil && !tainted[obj] {
							tainted[obj] = true
							changed = true
						}
					}
					continue
				}
				// s.f = buf (or s.f[k] = buf): the field aliases buf now.
				if isFieldLvalue(p, lhs, roots) {
					if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil && !tainted[obj] {
							tainted[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not fn's returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if !isSliceType(p.Info.TypeOf(r)) {
				continue
			}
			bad := false
			switch e := ast.Unparen(r).(type) {
			case *ast.SliceExpr:
				bad = fieldBacked(p, e.X, roots, tainted)
			case *ast.Ident:
				bad = tainted[p.Info.Uses[e]]
			case *ast.SelectorExpr:
				sel := p.Info.Selections[e]
				bad = sel != nil && sel.Kind() == types.FieldVal &&
					rootedAt(p, e.X, roots, tainted) &&
					strings.Contains(strings.ToLower(e.Sel.Name), "scratch")
			}
			if bad {
				p.Reportf(r.Pos(), "exported %s returns a slice aliasing retained storage; "+
					"copy it (append([]T(nil), s...)) or document the view via an unexported helper",
					fn.Name.Name)
			}
		}
		return true
	})
}

// fieldBacked reports whether e denotes (a window into) storage held by
// a root object's field or a tainted local.
func fieldBacked(p *Pass, e ast.Expr, roots, tainted map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return tainted[p.Info.Uses[e]]
	case *ast.SelectorExpr:
		sel := p.Info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return false
		}
		return rootedAt(p, e.X, roots, tainted)
	case *ast.IndexExpr:
		return fieldBacked(p, e.X, roots, tainted)
	case *ast.SliceExpr:
		return fieldBacked(p, e.X, roots, tainted)
	case *ast.StarExpr:
		return fieldBacked(p, e.X, roots, tainted)
	}
	return false
}

// rootedAt reports whether the selector/index chain e bottoms out at a
// receiver/parameter object or a tainted local.
func rootedAt(p *Pass, e ast.Expr, roots, tainted map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		return roots[obj] || tainted[obj]
	case *ast.SelectorExpr:
		return rootedAt(p, e.X, roots, tainted)
	case *ast.IndexExpr:
		return rootedAt(p, e.X, roots, tainted)
	case *ast.SliceExpr:
		return rootedAt(p, e.X, roots, tainted)
	case *ast.StarExpr:
		return rootedAt(p, e.X, roots, tainted)
	}
	return false
}

// isFieldLvalue reports whether lhs writes through a root object's field
// (s.f, s.f[k], s.m[k]...).
func isFieldLvalue(p *Pass, lhs ast.Expr, roots map[types.Object]bool) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel := p.Info.Selections[e]
		return sel != nil && sel.Kind() == types.FieldVal && rootedAt(p, e.X, roots, nil)
	case *ast.IndexExpr:
		return isFieldLvalue(p, e.X, roots)
	case *ast.StarExpr:
		return isFieldLvalue(p, e.X, roots)
	}
	return false
}

// isSliceType reports whether t's underlying type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
