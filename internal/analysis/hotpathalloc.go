package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the engine's allocation-free kernel invariant.
//
// The paper's performance results (direct expectation evaluation, gate
// fusion, post-ansatz caching) come from amplitude-sweep loops that run
// 2ⁿ times per gate or term group; a single heap allocation or interface
// box inside one multiplies into GC pressure that erases the batching
// win. Functions carrying a `//vqesim:hotpath` directive (gate kernels in
// internal/state, the pair-sweep/diagonal-collapse loops in
// internal/pauli, the dense vector ops in internal/linalg) are therefore
// held to a machine-checked discipline: no make/new/append, no slice or
// map literals, no string building, no go/defer, no closures (except the
// chunk body handed straight to the worker pool), and no interface boxing
// of concrete values.
//
// Error guards are exempt: an `if` block that ends by panicking may
// allocate freely, since it executes at most once per call and only on
// the failure path.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "flag heap allocation, append, interface boxing, and closure capture " +
		"inside functions annotated //vqesim:hotpath",
	Run: runHotPathAlloc,
}

// poolSubmitters names the methods that accept the one blessed closure:
// the chunk body handed to the persistent worker pool (or its inline
// fallback). The closure is created once per sweep, not per amplitude,
// so it does not break the per-iteration allocation budget.
var poolSubmitters = map[string]bool{
	"parallelFor":    true,
	"parallelReduce": true,
	"Run":            true,
	"ReduceFloat":    true,
}

func runHotPathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		directiveLines := hotpathLines(pass.Fset, file)
		claimed := map[int]bool{}

		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if hasHotpathDoc(fn.Doc) {
					claimDirective(fn.Doc, pass.Fset, directiveLines, claimed)
					if fn.Body != nil {
						checkHotBody(pass, fn.Body, fn.Name.Name)
					}
				}
			case *ast.FuncLit:
				line := pass.Fset.Position(fn.Pos()).Line
				if directiveLines[line-1] && !claimed[line-1] {
					claimed[line-1] = true
					checkHotBody(pass, fn.Body, "func literal")
				}
			}
			return true
		})

		// Any unclaimed directive is a misplaced annotation: it silently
		// protects nothing, which is worse than a missing one.
		for line := range directiveLines {
			if !claimed[line] {
				pass.Report(Diagnostic{
					Pos:     lineStartPos(pass.Fset, file, line),
					Message: "misplaced //vqesim:hotpath: directive must immediately precede a function declaration or literal",
				})
			}
		}
	}
	return nil
}

// hotpathLines returns the set of lines in file carrying the hotpath
// directive as a standalone comment (doc-comment directives are handled
// through FuncDecl.Doc).
func hotpathLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, hotpathDirective) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// claimDirective marks the directive lines inside a declaration's doc
// comment as claimed.
func claimDirective(doc *ast.CommentGroup, fset *token.FileSet, directives, claimed map[int]bool) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		line := fset.Position(c.Pos()).Line
		if directives[line] {
			claimed[line] = true
		}
	}
}

func hasHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, hotpathDirective) {
			return true
		}
	}
	return false
}

// lineStartPos returns a position on the given line of file (best
// effort: the position of the first comment on that line, else the file
// start).
func lineStartPos(fset *token.FileSet, file *ast.File, line int) token.Pos {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line == line {
				return c.Pos()
			}
		}
	}
	return file.Pos()
}

// checkHotBody walks one annotated function body and reports every
// allocation-risky construct outside panic guards.
func checkHotBody(pass *Pass, body *ast.BlockStmt, name string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if endsInPanic(x.Body) {
				// Error guard: allocate-to-panic is fine. Still walk the
				// condition and any else branch.
				ast.Inspect(x.Cond, walk)
				if x.Else != nil {
					ast.Inspect(x.Else, walk)
				}
				return false
			}
		case *ast.CallExpr:
			return checkHotCall(pass, x, walk)
		case *ast.CompositeLit:
			switch pass.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				pass.ReportRangef(x, "hot path: slice literal allocates (function %s is //vqesim:hotpath)", name)
			case *types.Map:
				pass.ReportRangef(x, "hot path: map literal allocates (function %s is //vqesim:hotpath)", name)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.ReportRangef(x, "hot path: &composite literal escapes to the heap (function %s is //vqesim:hotpath)", name)
				}
			}
		case *ast.FuncLit:
			pass.ReportRangef(x, "hot path: closure allocates and captures (function %s is //vqesim:hotpath); only pool chunk bodies may be literals", name)
			return false
		case *ast.GoStmt:
			pass.ReportRangef(x, "hot path: go statement spawns a goroutine per call (function %s is //vqesim:hotpath); use the persistent worker pool", name)
		case *ast.DeferStmt:
			pass.ReportRangef(x, "hot path: defer allocates a frame record (function %s is //vqesim:hotpath)", name)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pass.TypeOf(x.X)) {
				pass.ReportRangef(x, "hot path: string concatenation allocates (function %s is //vqesim:hotpath)", name)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkHotCall vets one call inside a hot body: allocating builtins,
// string conversions, interface boxing of concrete arguments, and the
// pool-submitter closure exemption.
func checkHotCall(pass *Pass, call *ast.CallExpr, walk func(ast.Node) bool) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.ReportRangef(call, "hot path: append may grow and allocate; use a fixed-size buffer")
			case "make":
				pass.ReportRangef(call, "hot path: make allocates; hoist the buffer out of the kernel")
			case "new":
				pass.ReportRangef(call, "hot path: new allocates")
			}
			return true
		}
	}

	// Conversions to/from string allocate.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypeOf(call.Args[0])
		if isStringType(to) != isStringType(from) && (isStringType(to) || isStringType(from)) {
			if isByteOrRuneSlice(to) || isByteOrRuneSlice(from) {
				pass.ReportRangef(call, "hot path: string conversion copies and allocates")
			}
		}
		return true
	}

	// Interface boxing: a concrete non-pointer argument passed to an
	// interface-typed parameter allocates (the value escapes into the
	// interface's data word).
	if sig, ok := pass.TypeOf(call.Fun).(*types.Signature); ok {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt == nil || !types.IsInterface(pt) {
				continue
			}
			at := pass.TypeOf(arg)
			if at == nil || types.IsInterface(at) || isUntypedNil(at) {
				continue
			}
			if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
				continue // pointers fit the interface data word: no box
			}
			pass.ReportRangef(arg, "hot path: passing %s to interface parameter boxes the value (allocates)", types.TypeString(at, types.RelativeTo(pass.Pkg)))
		}
	}

	// Pool-submitter exemption: closures handed directly to the worker
	// pool are created once per sweep and are the sanctioned chunking
	// idiom — walk their bodies strictly but don't flag the literal.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && poolSubmitters[sel.Sel.Name] {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
			} else {
				ast.Inspect(arg, walk)
			}
		}
		ast.Inspect(call.Fun, walk)
		return false
	}
	return true
}

// endsInPanic reports whether every terminating path of block is a panic
// call — the shape of an error guard. (We only look at the last
// statement; guards in this codebase are single-purpose.)
func endsInPanic(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	last := block.List[len(block.List)-1]
	expr, ok := last.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
