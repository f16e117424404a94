package analysis

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// FloatCompare enforces numeric discipline outside tests:
//
//   - `==` / `!=` between float or complex operands is flagged unless
//     one side is the exact constant zero. Equality after rounding is
//     the classic silent-wrong-answer bug; the zero exemption covers the
//     engine's deliberate sparsity skips (`if amp == 0 { continue }`),
//     which compare against the one value IEEE arithmetic produces
//     exactly. Anything else should go through core.AlmostEqual /
//     core.AlmostEqualC with an explicit tolerance.
//   - `cmplx.Abs(z) * cmplx.Abs(z)` is flagged: it pays two square
//     roots to compute |z|², which `real(z)*real(z)+imag(z)*imag(z)`
//     yields exactly with two multiplies — the form every hot sweep in
//     internal/state and internal/pauli already uses.
var FloatCompare = &Analyzer{
	Name: "floatcompare",
	Doc: "flag ==/!= on float/complex values (except exact-zero sparsity guards) and " +
		"cmplx.Abs(z)*cmplx.Abs(z) squared-modulus computations, outside _test files",
	Run: runFloatCompare,
}

func runFloatCompare(pass *Pass) error {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests compare exact values on purpose
		}
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.EQL, token.NEQ:
				checkFloatEquality(pass, be)
			case token.MUL:
				checkAbsSquared(pass, be)
			}
			return true
		})
	}
	return nil
}

func checkFloatEquality(pass *Pass, be *ast.BinaryExpr) {
	lt, rt := pass.TypeOf(be.X), pass.TypeOf(be.Y)
	if !isFloatOrComplex(lt) && !isFloatOrComplex(rt) {
		return
	}
	if isExactZero(pass, be.X) || isExactZero(pass, be.Y) {
		return // sparsity guard against the exactly-representable zero
	}
	kind := "floating-point"
	if isComplexType(lt) || isComplexType(rt) {
		kind = "complex"
	}
	pass.ReportRangef(be, "%s %s comparison is exact; use core.AlmostEqual/AlmostEqualC with a tolerance "+
		"(or compare against the exact constant 0 for sparsity skips)", kind, be.Op)
}

// checkAbsSquared matches cmplx.Abs(z) * cmplx.Abs(z) with syntactically
// identical arguments.
func checkAbsSquared(pass *Pass, be *ast.BinaryExpr) {
	lz, lok := cmplxAbsArg(pass, be.X)
	rz, rok := cmplxAbsArg(pass, be.Y)
	if !lok || !rok {
		return
	}
	lsrc, rsrc := exprSource(pass.Fset, lz), exprSource(pass.Fset, rz)
	if lsrc != rsrc {
		return
	}
	pass.Report(Diagnostic{
		Pos: be.Pos(), End: be.End(),
		Message: "cmplx.Abs(z)*cmplx.Abs(z) takes two square roots to compute |z|²; " +
			"use real(z)*real(z)+imag(z)*imag(z)",
	})
}

func cmplxAbsArg(pass *Pass, e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || !isPkgFunc(pass.Info, call, "math/cmplx", "Abs") {
		return nil, false
	}
	return call.Args[0], true
}

func exprSource(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

func isFloatOrComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isComplexType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsComplex != 0
}

// isExactZero reports whether e is a constant expression whose value is
// exactly zero (0, 0.0, 0i, or a named constant thereof).
func isExactZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.Complex:
		return constant.Sign(constant.Real(tv.Value)) == 0 && constant.Sign(constant.Imag(tv.Value)) == 0
	}
	return false
}
