package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pmemspec/internal/analysis/dataflow"
)

// SpecPair enforces the paper's compiler rule (§6) on workload and
// runtime code: every critical-section entry is paired with its exit on
// all control-flow paths, and the speculation-ID revoke happens before
// the lock release. Concretely, per function it checks a stack
// discipline over:
//
//	machine.Thread.Lock/Unlock/TryLock   (lock + spec-assign as a unit)
//	sim.Mutex.Lock/Unlock/TryLock        (raw lock)
//	machine.Thread.SpecAssign/SpecRevoke (raw speculation register)
//
// A raw spec-assign must be revoked before the enclosing raw unlock —
// mixing machine-level lock entry with sim-level release (which would
// skip the revoke) is likewise a violation. TryLock is branch-sensitive
// through the shared dataflow CFG: the success edge of any condition
// containing the call (including `ok := m.TryLock(t)` bindings and
// negated early-exit forms) holds the lock; discarding the result is
// itself reported, since a won lock would then never be released.
//
// The check runs on the dataflow engine's CFG, so deferred releases —
// `defer t.Unlock(lk)`, `defer t.SpecRevoke()`, and deferred function
// literals that release — execute in the exit epilogue on every path
// and balance early returns.
var SpecPair = &Analyzer{
	Name: "specpair",
	Doc:  "check Lock/Unlock and SpecAssign/SpecRevoke balance on all control-flow paths",
	Run:  runSpecPair,
}

func runSpecPair(pass *Pass) error {
	if !pathHasAny(pass.Pkg.Path, "/internal/workload", "/internal/fatomic", "/analysis/testdata") {
		return nil
	}
	for _, fd := range funcDecls(pass.Pkg) {
		w := &spWalker{pass: pass, info: pass.Pkg.Info, reported: map[string]bool{}}
		w.analyze(fd.decl.Body)
	}
	return nil
}

// spTok is one entry of the critical-section stack.
type spTok struct {
	kind string // "cs" (machine lock+spec unit), "lock" (raw sim lock), "spec"
	name string // lock expression text, "" for spec
	pos  token.Pos
}

func (t spTok) describe() string {
	switch t.kind {
	case "cs":
		return fmt.Sprintf("critical section on %s (machine Lock)", t.name)
	case "lock":
		return fmt.Sprintf("sim lock %s", t.name)
	default:
		return "spec-assign"
	}
}

// spState is one control-flow path's stack.
type spState struct {
	stack []spTok
}

func (s spState) push(t spTok) spState {
	ns := spState{stack: make([]spTok, len(s.stack)+1)}
	copy(ns.stack, s.stack)
	ns.stack[len(s.stack)] = t
	return ns
}

func (s spState) key() string {
	k := ""
	for _, t := range s.stack {
		k += t.kind + ":" + t.name + ";"
	}
	return k
}

const (
	spMaxStates = 64
	spMaxDepth  = 16
)

// spSet is the dataflow state: the set of distinct stacks reaching a
// program point (path-sensitive within the explosion caps). States are
// kept sorted by key and deduplicated, so Join and Equal are canonical.
type spSet struct {
	states []spState
}

func spCanon(states []spState) []spState {
	sort.SliceStable(states, func(i, j int) bool { return states[i].key() < states[j].key() })
	out := states[:0]
	var last string
	for i, s := range states {
		k := s.key()
		if i > 0 && k == last {
			continue
		}
		last = k
		out = append(out, s)
	}
	return out
}

// spEvent classifies one call's effect.
type spEvent struct {
	op   string // "push", "pop", "trylock"
	tok  spTok
	want string // for pop: expected token kind
	pos  token.Pos
}

// spWalker runs the per-function analysis: one CFG, one acyclic solve,
// one reporting pass, plus the per-back-edge loop-balance check.
type spWalker struct {
	pass     *Pass
	info     *types.Info
	reported map[string]bool
}

func (w *spWalker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, "%s", msg)
}

// analyze checks one function or closure body.
func (w *spWalker) analyze(body *ast.BlockStmt) {
	cfg := dataflow.Build(body)
	tr := &spTransfer{w: w, bound: bindTryLocks(w.info, body)}
	res := dataflow.SolveAcyclic[spSet](cfg, tr)
	if !tr.overflow {
		// Report pass: replay every reached block once against its solved
		// entry state, now emitting diagnostics.
		rep := &spTransfer{w: w, bound: tr.bound, report: true}
		for _, blk := range cfg.Blocks {
			in, ok := res.In[blk]
			if !ok {
				continue
			}
			dataflow.FlowThrough(blk, in, rep)
		}
		// Function exit: everything still on a stack leaks.
		if exitIn, ok := res.In[cfg.Exit]; ok {
			for _, s := range exitIn.states {
				for _, t := range s.stack {
					switch t.kind {
					case "spec":
						w.reportf(t.pos, "SpecAssign is not revoked on every path (function can return with the speculation ID still assigned)")
					default:
						w.reportf(t.pos, "%s is not released on every path", t.describe())
					}
				}
			}
		}
		// Loop balance: the state carried around each back edge must match
		// a state the loop was entered with — each iteration releases what
		// it acquires, and releases nothing it did not acquire.
		for _, be := range cfg.BackEdges {
			iter, ok := dataflow.EdgeState(res, tr, be.From, be.To)
			if !ok {
				continue
			}
			entry, eok := dataflow.EntryIn(cfg, res, tr, be.To)
			entryKeys := map[string]bool{}
			if eok {
				for _, s := range entry.states {
					entryKeys[s.key()] = true
				}
			}
			for _, s := range iter.states {
				if entryKeys[s.key()] {
					continue
				}
				for _, t := range s.stack {
					w.reportf(t.pos, "%s does not balance within the loop body (each iteration must release what it acquires)", t.describe())
				}
				if len(s.stack) == 0 {
					w.reportf(be.To.End, "loop body releases a lock acquired outside the loop")
				}
			}
		}
	}
	// Nested function literals are separate functions with empty stacks
	// (except deferred literals the CFG inlined into the epilogue, which
	// never appear as nodes).
	for _, lit := range tr.lits {
		w.analyze(lit.Body)
	}
}

// spTransfer is the dataflow client. During Solve, report is false and
// Node/Branch are pure; the report pass re-runs them with report set.
type spTransfer struct {
	w        *spWalker
	bound    tryLockBinds
	report   bool
	overflow bool
	lits     []*ast.FuncLit
	litSeen  map[*ast.FuncLit]bool
}

func (t *spTransfer) Entry() spSet { return spSet{states: []spState{{}}} }

func (t *spTransfer) Node(n ast.Node, s spSet, _ bool) spSet {
	if t.overflow {
		return s
	}
	states := s.states
	ast.Inspect(n, func(x ast.Node) bool {
		if t.overflow {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			t.collectLit(x)
			return false
		case *ast.CallExpr:
			if ev, ok := t.w.classify(x); ok {
				states = t.apply(states, ev, t.report && isStmtCall(n, x))
				for _, a := range x.Args {
					t.scanLits(a)
				}
				return false
			}
		}
		return true
	})
	return spSet{states: spCanon(states)}
}

// isStmtCall reports whether call is the entire expression statement n
// — the only position where a discarded TryLock result is reportable.
func isStmtCall(n ast.Node, call *ast.CallExpr) bool {
	es, ok := n.(*ast.ExprStmt)
	return ok && ast.Unparen(es.X) == ast.Expr(call)
}

func (t *spTransfer) collectLit(lit *ast.FuncLit) {
	if t.report {
		return // collected during the solve already
	}
	if t.litSeen == nil {
		t.litSeen = map[*ast.FuncLit]bool{}
	}
	if !t.litSeen[lit] {
		t.litSeen[lit] = true
		t.lits = append(t.lits, lit)
	}
}

func (t *spTransfer) scanLits(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			t.collectLit(fl)
			return false
		}
		return true
	})
}

// Branch pushes the lock token on the success edge of a TryLock-valued
// condition (the call itself, or a variable bound to one).
func (t *spTransfer) Branch(cond ast.Expr, outcome bool, s spSet) spSet {
	if t.overflow || !outcome {
		return s
	}
	ev, ok := t.tryLockCond(cond)
	if !ok {
		return s
	}
	return spSet{states: spCanon(t.apply(s.states, spEvent{op: "push", tok: ev.tok}, false))}
}

func (t *spTransfer) tryLockCond(cond ast.Expr) (spEvent, bool) {
	if call := t.bound.condCall(t.w.info, cond); call != nil {
		if ev, ok := t.w.classify(call); ok && ev.op == "trylock" {
			return ev, true
		}
	}
	return spEvent{}, false
}

func (t *spTransfer) Join(a, b spSet) spSet {
	merged := append(append([]spState{}, a.states...), b.states...)
	merged = spCanon(merged)
	if len(merged) > spMaxStates {
		t.overflow = true
		merged = merged[:spMaxStates]
	}
	return spSet{states: merged}
}

func (t *spTransfer) Equal(a, b spSet) bool {
	if len(a.states) != len(b.states) {
		return false
	}
	for i := range a.states {
		if a.states[i].key() != b.states[i].key() {
			return false
		}
	}
	return true
}

// apply transforms every state by one event.
func (t *spTransfer) apply(states []spState, ev spEvent, reportIgnored bool) []spState {
	switch ev.op {
	case "push":
		out := make([]spState, 0, len(states))
		for _, s := range states {
			if len(s.stack) >= spMaxDepth {
				t.overflow = true
				return states
			}
			out = append(out, s.push(ev.tok))
		}
		return out
	case "pop":
		out := make([]spState, 0, len(states))
		for _, s := range states {
			out = append(out, spState{stack: t.applyPop(s.stack, ev)})
		}
		return out
	case "trylock":
		if reportIgnored {
			t.w.reportf(ev.pos, "result of %s.TryLock is discarded: a won lock would never be released", ev.tok.name)
		}
		// Result consumed in a form the analysis cannot track, or pushed
		// later by Branch on the guard edge: no state change here.
		return states
	}
	return states
}

// applyPop pops ev from the stack, reporting discipline violations in
// report mode.
func (t *spTransfer) applyPop(stack []spTok, ev spEvent) []spTok {
	reportf := func(pos token.Pos, format string, args ...any) {
		if t.report {
			t.w.reportf(pos, format, args...)
		}
	}
	if len(stack) == 0 {
		switch ev.want {
		case "spec":
			reportf(ev.pos, "SpecRevoke without a matching SpecAssign on this path")
		default:
			reportf(ev.pos, "Unlock of %s without a matching Lock on this path", ev.tok.name)
		}
		return stack
	}
	top := stack[len(stack)-1]
	if top.kind == ev.want && (ev.want == "spec" || top.name == ev.tok.name) {
		return stack[:len(stack)-1]
	}
	// Mismatch: diagnose the specific discipline broken, then remove the
	// intended token (if present) to avoid cascading reports.
	switch {
	case ev.want == "lock" && top.kind == "spec":
		reportf(ev.pos, "Unlock of %s before SpecRevoke: the revoke must precede the lock release (§6 compiler rule)", ev.tok.name)
	case ev.want == "lock" && top.kind == "cs" && top.name == ev.tok.name:
		reportf(ev.pos, "%s was acquired with machine Thread.Lock but released with sim Mutex.Unlock, skipping the SpecRevoke", ev.tok.name)
		return stack[:len(stack)-1]
	case ev.want == "cs" && top.kind == "lock" && top.name == ev.tok.name:
		reportf(ev.pos, "%s was acquired with sim Mutex.Lock but released with machine Thread.Unlock, which issues an unmatched SpecRevoke", ev.tok.name)
		return stack[:len(stack)-1]
	case ev.want == "spec":
		reportf(ev.pos, "SpecRevoke crosses %s: release it first (spec sections must nest innermost)", top.describe())
	default:
		reportf(ev.pos, "Unlock of %s crosses %s (releases must nest)", ev.tok.name, top.describe())
	}
	for i := len(stack) - 1; i >= 0; i-- {
		tk := stack[i]
		if tk.kind == ev.want && (ev.want == "spec" || tk.name == ev.tok.name) {
			return append(append([]spTok{}, stack[:i]...), stack[i+1:]...)
		}
	}
	return stack
}

// classify maps a call to its stack event, if it is one of the paired
// APIs.
func (w *spWalker) classify(call *ast.CallExpr) (spEvent, bool) {
	kind := classifyPMOp(calleeOf(w.info, call)).Kind
	pos := call.Pos()
	var tok spTok
	switch kind {
	case pmLockMachine, pmUnlockMachine, pmTryLockMachine:
		name := receiverExprString(call)
		if len(call.Args) > 0 {
			name = exprString(call.Args[0])
		}
		tok = spTok{kind: "cs", name: name, pos: pos}
	case pmLockRaw, pmUnlockRaw, pmTryLockRaw:
		tok = spTok{kind: "lock", name: receiverExprString(call), pos: pos}
	case pmSpecAssign, pmSpecRevoke:
		tok = spTok{kind: "spec", pos: pos}
	default:
		return spEvent{}, false
	}
	switch kind {
	case pmLockMachine, pmLockRaw, pmSpecAssign:
		return spEvent{op: "push", tok: tok}, true
	case pmTryLockMachine, pmTryLockRaw:
		return spEvent{op: "trylock", tok: tok, pos: pos}, true
	}
	return spEvent{op: "pop", want: tok.kind, tok: tok, pos: pos}, true
}
