package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// PanicDiscipline enforces the engine's panic contract inside internal/*
// packages: a panic must carry either
//
//   - a core sentinel error (core.ErrInvalidArgument and friends),
//     optionally wrapped with fmt.Errorf("...: %w", ..., sentinel) so
//     callers can errors.Is across package boundaries, or a call into
//     core that constructs such an error (core.QubitError); or
//   - a message string prefixed with the package name ("state: ...") so
//     a recovered panic is attributable without a stack trace.
//
// Bare strings, unwrapped foreign errors, and naked re-panics of an err
// variable are flagged: they strand the caller with no errors.Is target
// and no package attribution.
var PanicDiscipline = &Analyzer{
	Name: "panicdiscipline",
	Doc: "in internal packages, panic only with core sentinel errors (optionally " +
		"%w-wrapped) or package-prefixed messages",
	Run: runPanicDiscipline,
}

func runPanicDiscipline(pass *Pass) error {
	path := strings.TrimSuffix(pass.Pkg.Path(), ".test")
	if !strings.Contains(path+"/", "/internal/") {
		return nil // contract applies to the engine packages only
	}
	prefix := strings.TrimSuffix(pass.Pkg.Name(), "_test") + ": "
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue // test helpers may panic(err) freely
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
				return true
			}
			checkPanicArg(pass, call.Args[0], prefix)
			return false
		})
	}
	return nil
}

func checkPanicArg(pass *Pass, arg ast.Expr, prefix string) {
	arg = ast.Unparen(arg)

	// Constant strings (literals or consts): require the package prefix.
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		s := constant.StringVal(tv.Value)
		if strings.HasPrefix(s, prefix) {
			return
		}
		pass.Report(Diagnostic{
			Pos: arg.Pos(), End: arg.End(),
			Message: fmt.Sprintf("panic message %q lacks the %q package prefix", truncate(s, 40), prefix),
		})
		return
	}

	switch x := arg.(type) {
	case *ast.SelectorExpr, *ast.Ident:
		if isCoreSentinel(pass, arg) {
			return
		}
	case *ast.CallExpr:
		if callIntoCore(pass, x) {
			return // core.QubitError(...) and friends construct compliant errors
		}
		if ok, fixable := checkFormattedPanic(pass, x, prefix); ok {
			return
		} else if fixable {
			return // already reported with a targeted message
		}
	}

	if t := pass.TypeOf(arg); t != nil && isErrorType(t) {
		pass.Report(Diagnostic{
			Pos: arg.Pos(), End: arg.End(),
			Message: fmt.Sprintf("panic with a bare error value: wrap it as fmt.Errorf(%q, err) "+
				"(with a core sentinel where applicable) so recovered panics are attributable", prefix+"%w"),
		})
		return
	}
	pass.Report(Diagnostic{
		Pos: arg.Pos(), End: arg.End(),
		Message: fmt.Sprintf("panic argument must be a core sentinel error (optionally fmt.Errorf-wrapped with %%w) "+
			"or a %q-prefixed message", prefix),
	})
}

// checkFormattedPanic handles fmt.Errorf / fmt.Sprintf panics. It
// returns (ok, reported): ok when the call satisfies the contract,
// reported when a targeted diagnostic was already emitted.
func checkFormattedPanic(pass *Pass, call *ast.CallExpr, prefix string) (ok, reported bool) {
	isErrorf := isPkgFunc(pass.Info, call, "fmt", "Errorf")
	isSprintf := isPkgFunc(pass.Info, call, "fmt", "Sprintf")
	if !isErrorf && !isSprintf {
		return false, false
	}
	if len(call.Args) == 0 {
		return false, false
	}
	format, known := constantString(pass, call.Args[0])

	// A %w-wrapped core sentinel is compliant regardless of prefix: the
	// sentinel itself carries the "core: " attribution.
	if isErrorf && known && strings.Contains(format, "%w") {
		for _, a := range call.Args[1:] {
			if isCoreSentinel(pass, ast.Unparen(a)) || coreCall(pass, a) {
				return true, false
			}
		}
	}
	if known && strings.HasPrefix(format, prefix) {
		if isSprintf {
			return true, false
		}
		// Errorf with package prefix: fine with or without %w.
		return true, false
	}
	if !known {
		return false, false // dynamic format: fall through to generic report
	}
	verb := "fmt.Sprintf"
	if isErrorf {
		verb = "fmt.Errorf"
	}
	pass.Report(Diagnostic{
		Pos: call.Pos(), End: call.End(),
		Message: fmt.Sprintf("%s panic format %q lacks the %q package prefix and wraps no core sentinel",
			verb, truncate(format, 40), prefix),
	})
	return false, true
}

// isCoreSentinel reports whether e denotes an exported Err* variable of
// the core package.
func isCoreSentinel(pass *Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return false
	}
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	return pkgPathMatches(v.Pkg().Path(), "internal/core")
}

// callIntoCore reports whether call invokes an error-returning function
// of the core package.
func callIntoCore(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(pass.Info, call)
	if obj == nil || obj.Pkg() == nil || !pkgPathMatches(obj.Pkg().Path(), "internal/core") {
		return false
	}
	if t := pass.TypeOf(call); t != nil {
		return isErrorType(t)
	}
	return false
}

func coreCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && callIntoCore(pass, call)
}

func constantString(pass *Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

func isErrorType(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errorInterface()) || i.NumMethods() == 1 && i.Method(0).Name() == "Error"
}

var errIface *types.Interface

func errorInterface() *types.Interface {
	if errIface == nil {
		errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errIface
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
