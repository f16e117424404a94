package analysis

// lockdiscipline proves, per function body, that sync.Mutex/RWMutex
// critical sections are well formed on every control-flow path:
//
//   - a lock acquired on some path but not released on every path to the
//     function's exit is a leak;
//   - locking a mutex that is already definitely held self-deadlocks;
//   - acquiring a second mutex while one is definitely held risks
//     lock-order inversion across goroutines;
//   - blocking while a mutex is definitely held (channel send or
//     receive, range over a channel, time.Sleep, sync.WaitGroup.Wait,
//     net/http calls) stalls every other goroutine contending for it.
//
// Sends that sit in a `select` with a default case cannot block, but the
// analyzer still reports them: a send under a held lock couples
// subscriber wakeups to the critical section, and the default case
// silently drops events whenever consumers lag — do the hand-off after
// releasing the lock. Receives in such selects are exempt.
//
// The analysis is a forward dataflow over the function's CFG with a
// two-part state: the set of locks held on every path (must, used for
// deadlock/blocking reports) and on some path (may, used for leak
// reports). Lock identity is the chain of objects in the receiver
// expression (`s.mu` is one lock per s object chain); receivers the
// analysis cannot name are ignored. Function literals are analyzed as
// separate bodies.

import (
	"fmt"
	"go/ast"
	"sort"

	"repro/internal/analysis/cfg"
)

var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "check that mutexes are unlocked on every path and nothing blocks " +
		"while a mutex is held",
	Run: runLockDiscipline,
}

// lockAcq records one Lock/RLock call site.
type lockAcq struct {
	call *ast.CallExpr
	name string // receiver rendered as source, e.g. "s.mu"
	read bool   // RLock rather than Lock
}

// lockState is the dataflow state: held locks keyed by receiver object
// chain plus a "/r" or "/w" mode suffix.
type lockState struct {
	must map[string]*lockAcq
	may  map[string]*lockAcq
}

func runLockDiscipline(pass *Pass) error {
	for _, file := range pass.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			checkLockBody(pass, body)
		})
	}
	return nil
}

// lockOps scans the body (not nested function literals) for sync lock
// and unlock calls, keyed by call node.
type lockOp struct {
	key    string
	name   string
	read   bool
	unlock bool
}

func collectLockOps(pass *Pass, body *ast.BlockStmt) map[*ast.CallExpr]lockOp {
	ops := map[*ast.CallExpr]lockOp{}
	inspectShallow(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, okOp := classifyLockCall(pass, call); okOp {
				ops[call] = op
			}
		}
	})
	return ops
}

// classifyLockCall recognizes (R)Lock/(R)Unlock calls on identifiable
// sync.Mutex/RWMutex receivers.
func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	recvType, method, ok := syncMethod(pass, call)
	if !ok || (recvType != "Mutex" && recvType != "RWMutex") {
		return lockOp{}, false
	}
	var read, unlock bool
	switch method {
	case "Lock":
	case "RLock":
		read = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		read, unlock = true, true
	default:
		return lockOp{}, false // TryLock etc: acquisition is conditional, skip
	}
	recv := lockReceiver(call)
	if recv == nil {
		return lockOp{}, false
	}
	key, ok := exprObjKey(pass, recv)
	if !ok {
		return lockOp{}, false
	}
	mode := "/w"
	if read {
		mode = "/r"
	}
	return lockOp{
		key:    key + mode,
		name:   exprText(pass.Fset, recv),
		read:   read,
		unlock: unlock,
	}, true
}

// deferredUnlockKeys returns the lock keys released by defer statements:
// `defer x.Unlock()` directly, or any unlock inside a deferred closure
// (closures are not in ops — the collection walk is shallow — so
// classify their calls from scratch).
func deferredUnlockKeys(pass *Pass, ops map[*ast.CallExpr]lockOp, defers []*ast.DeferStmt) map[string]bool {
	out := map[string]bool{}
	record := func(call *ast.CallExpr) {
		if op, ok := classifyLockCall(pass, call); ok && op.unlock {
			out[op.key] = true
		}
	}
	for _, d := range defers {
		record(d.Call)
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall {
					record(call)
				}
				return true
			})
		}
	}
	return out
}

func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	ops := collectLockOps(pass, body)
	if len(ops) == 0 {
		return
	}
	hasAcquire := false
	for _, op := range ops {
		hasAcquire = hasAcquire || !op.unlock
	}
	if !hasAcquire {
		return // unlock-only helper: pairing lives in the callers
	}

	g := cfg.New(body)
	deferred := deferredUnlockKeys(pass, ops, g.Defers)
	softened := softenedCommOps(body)

	// nodeOps applies the lock operations that execute when node runs.
	// Defer and go statements are skipped: deferred unlocks run at exit
	// (handled via deferred), and a `go` call runs concurrently.
	nodeOps := func(node ast.Node, fn func(call *ast.CallExpr, op lockOp)) {
		switch node.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return
		}
		walkBlockNode(node, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, okOp := ops[call]; okOp {
					fn(call, op)
				}
			}
		})
	}

	transfer := func(b *cfg.Block, in lockState) lockState {
		st := cloneLockState(in)
		for _, node := range b.Nodes {
			nodeOps(node, func(call *ast.CallExpr, op lockOp) {
				if op.unlock {
					delete(st.must, op.key)
					delete(st.may, op.key)
					return
				}
				acq := &lockAcq{call: call, name: op.name, read: op.read}
				st.must[op.key] = acq
				st.may[op.key] = acq
			})
		}
		return st
	}

	problem := &cfg.ForwardProblem[lockState]{
		Entry:    lockState{must: map[string]*lockAcq{}, may: map[string]*lockAcq{}},
		Join:     joinLockStates,
		Equal:    equalLockStates,
		Transfer: transfer,
	}
	in := problem.Solve(g)

	// Reporting pass: replay each reachable block once from its final
	// in-state so every diagnostic fires at most once per site.
	leaked := map[*ast.CallExpr]*lockAcq{}
	for _, b := range g.ReversePostorder() {
		st, ok := in[b]
		if !ok {
			continue
		}
		st = cloneLockState(st)
		for _, node := range b.Nodes {
			if desc := blockingNodeDesc(pass, node, softened); desc != "" && len(st.must) > 0 {
				held := pickHeld(st.must)
				pass.Reportf(node.Pos(), "%s while %s is held: shrink the critical section so other goroutines are not stalled behind the lock", desc, held.name)
			}
			nodeOps(node, func(call *ast.CallExpr, op lockOp) {
				if op.unlock {
					delete(st.must, op.key)
					delete(st.may, op.key)
					return
				}
				if _, held := st.must[op.key]; held {
					pass.Reportf(call.Pos(), "%s of %s while it is already held: this self-deadlocks", lockVerb(op.read), op.name)
				} else if len(st.must) > 0 && !op.read {
					held := pickHeld(st.must)
					if held.name != op.name {
						pass.Reportf(call.Pos(), "Lock of %s while %s is held: nested locks invite lock-order inversion; release %s first or document the ordering", op.name, held.name, held.name)
					}
				}
				acq := &lockAcq{call: call, name: op.name, read: op.read}
				st.must[op.key] = acq
				st.may[op.key] = acq
			})
		}
		// st is now the block's out-state; if it can reach the exit,
		// anything possibly still held (and not deferred) leaks.
		for _, succ := range b.Succs {
			if succ != g.Exit {
				continue
			}
			for key, acq := range st.may {
				if deferred[key] {
					continue
				}
				leaked[acq.call] = acq
			}
		}
	}

	for _, acq := range sortedLeaks(pass, leaked) {
		pass.Report(Diagnostic{
			Pos:      acq.call.Pos(),
			End:      acq.call.End(),
			Category: "lockdiscipline",
			Message: fmt.Sprintf("%s.%s is not released on every path to the function exit", acq.name,
				lockVerb(acq.read)),
		})
	}
}

func lockVerb(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

// blockingNodeDesc looks for a blocking operation anywhere in the
// statement node (excluding nested function literals and defer/go
// statements, which do not block the current goroutine here).
func blockingNodeDesc(pass *Pass, node ast.Node, softened map[ast.Node]bool) string {
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return ""
	}
	desc := ""
	walkBlockNode(node, func(n ast.Node) {
		if desc != "" {
			return
		}
		if d := blockingDesc(pass, n, softened); d != "" {
			desc = d
		}
	})
	return desc
}

// pickHeld returns the held lock with the smallest source position so
// diagnostics are deterministic.
func pickHeld(must map[string]*lockAcq) *lockAcq {
	var best *lockAcq
	for _, acq := range must {
		if best == nil || acq.call.Pos() < best.call.Pos() {
			best = acq
		}
	}
	return best
}

func sortedLeaks(pass *Pass, leaked map[*ast.CallExpr]*lockAcq) []*lockAcq {
	out := make([]*lockAcq, 0, len(leaked))
	for _, acq := range leaked {
		out = append(out, acq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].call.Pos() < out[j].call.Pos() })
	return out
}

func cloneLockState(in lockState) lockState {
	st := lockState{
		must: make(map[string]*lockAcq, len(in.must)),
		may:  make(map[string]*lockAcq, len(in.may)),
	}
	for k, v := range in.must {
		st.must[k] = v
	}
	for k, v := range in.may {
		st.may[k] = v
	}
	return st
}

// joinLockStates intersects must (held on every path) and unions may
// (held on some path), keeping the earliest acquisition for determinism.
func joinLockStates(a, b lockState) lockState {
	st := lockState{must: map[string]*lockAcq{}, may: map[string]*lockAcq{}}
	for k, va := range a.must {
		if vb, ok := b.must[k]; ok {
			st.must[k] = earlierAcq(va, vb)
		}
	}
	for k, v := range a.may {
		st.may[k] = v
	}
	for k, vb := range b.may {
		if va, ok := st.may[k]; ok {
			st.may[k] = earlierAcq(va, vb)
		} else {
			st.may[k] = vb
		}
	}
	return st
}

func earlierAcq(a, b *lockAcq) *lockAcq {
	if b.call.Pos() < a.call.Pos() {
		return b
	}
	return a
}

func equalLockStates(a, b lockState) bool {
	return equalKeySet(a.must, b.must) && equalKeySet(a.may, b.may)
}

func equalKeySet(a, b map[string]*lockAcq) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
