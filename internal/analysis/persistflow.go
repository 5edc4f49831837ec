package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pmemspec/internal/analysis/dataflow"
)

// PersistFlow is the interprocedural per-location persist-state
// analyzer. It runs the abstract interpreter over the shared dataflow
// CFG, tracking every PM-addressed value through the
// Dirty→Flushed→Ordered→Committed lattice with the field-sensitive
// alias layer (dataflow.Resolver), and reports:
//
//   - missing flush: a location still Dirty when the function returns
//     or releases a lock, including dirt inherited from a callee's
//     summary two or more call layers down (the Figure 2 rule: a raw
//     PM store must be flushed, then ordered, before a commit point);
//   - missing fence: a location flushed on some path but never ordered
//     by a barrier before return or a lock release;
//   - wrong-epoch stores: a store landing on a location between its
//     flush and the ordering barrier, never re-flushed — the barrier
//     fences a stale value;
//   - §6 spec coverage: a spec-tracked store (Thread.Store/StoreU64)
//     inside a lock-protected region with no open SpecAssign span, so
//     misspeculation on it could never be detected (the paper's
//     compiler rule).
//
// Functions summarize bottom-up through the fact store: per-parameter
// obligations (pf:dirty:<i>, pf:flushed:<i>), per-parameter services
// (pf:flush:<i>), and exit barrier state (pf:endfence, pf:enddurable).
// Packages load in dependency order, so summaries cross package
// boundaries. A parameter- or receiver-rooted obligation is the
// caller's to discharge; it is reported at return only when no caller
// can inherit it: the function's package never references it, so it is
// an entry point reached through an interface or from an unanalyzed
// package (a workload's Setup and Run). An exported helper called only
// from other packages counts as an entry point too, so it must
// discharge its own obligations.
var PersistFlow = &Analyzer{
	Name: "persistflow",
	Doc:  "interprocedural per-location persist-state tracking (missing flush/fence, wrong-epoch stores, §6 spec coverage)",
	Run:  runPersistFlow,
}

// Interprocedural summary facts. Parameter indices are 0-based and
// exclude the receiver; "recv" is the receiver's own variant.
const (
	// factPFClean: the function has no PM persistency effect at all —
	// calls to it preserve barrier adjacency.
	factPFClean = "pf:clean"
	// factPFEndFence / factPFEndDurable: on every path the function's
	// last PM event is an (ordering / durability) barrier, so a caller's
	// flushed locations are ordered by the call and an immediately
	// following fence in the caller is a pure stall.
	factPFEndFence   = "pf:endfence"
	factPFEndDurable = "pf:enddurable"
)

// pfMaxSummaryParams caps the per-parameter fact families.
const pfMaxSummaryParams = 8

func factPFDirty(i int) string   { return fmt.Sprintf("pf:dirty:%d", i) }
func factPFFlushed(i int) string { return fmt.Sprintf("pf:flushed:%d", i) }
func factPFFlush(i int) string   { return fmt.Sprintf("pf:flush:%d", i) }

const (
	factPFDirtyRecv   = "pf:dirty:recv"
	factPFFlushedRecv = "pf:flushed:recv"
	factPFFlushRecv   = "pf:flush:recv"
)

func runPersistFlow(pass *Pass) error {
	if !pathHasAny(pass.Pkg.Path, "/internal/workload", "/internal/fatomic", "/analysis/testdata") {
		return nil
	}
	decls := funcDecls(pass.Pkg)
	pfSummarize(pass, decls)
	referenced := map[*types.Func]bool{}
	for _, obj := range pass.Pkg.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			referenced[fn.Origin()] = true
		}
	}
	for _, fd := range decls {
		if pass.SuppressedAt(fd.decl.Pos()) {
			continue
		}
		w := newPFWalker(pass, pfModeDiscipline)
		w.noCaller = fd.obj != nil && !referenced[fd.obj]
		w.analyze(fd.decl.Body, signatureOf(fd.obj))
	}
	return nil
}

// pfSummarize solves the package's functions and exports their
// interprocedural summary facts. Both per-location analyzers call it
// (exports are idempotent), so each works standalone under -c.
//
// Summaries feed on callee facts, so a single source-order walk would
// miss helpers declared after their callers. Instead the walk iterates
// until a round finalizes nothing new: a function exports only when
// every callee it depends on already has facts (an unresolved callee
// sets anyUnknown and the function retries next round), so each
// function's fact set is written once, complete, and never revised —
// the fixpoint equals what a topological order over the intra-package
// call graph would produce, without building one. Mutual recursion
// never resolves and stays conservatively unsummarized.
func pfSummarize(pass *Pass, decls []funcDecl) {
	done := make([]bool, len(decls))
	for {
		changed := false
		for di, fd := range decls {
			if done[di] {
				continue
			}
			if fd.obj == nil || pass.SuppressedAt(fd.decl.Pos()) {
				done[di] = true // opted out: export no facts either
				continue
			}
			sig := signatureOf(fd.obj)
			w := newPFWalker(pass, pfModeSummarize)
			exit := w.analyze(fd.decl.Body, sig)
			if w.anyUnknown {
				continue // opaque (so far): retry once more facts land
			}
			done[di] = true
			changed = true
			pfExport(pass, fd, sig, w, exit)
		}
		if !changed {
			return
		}
	}
}

// pfExport writes one finalized function's summary facts.
func pfExport(pass *Pass, fd funcDecl, sig *types.Signature, w *pfWalker, exit dataflow.PMState) {
	if !w.anyPM {
		pass.Facts.Export(fd.obj, factPFClean)
		return
	}
	for _, i := range sortedKeys(w.flushedParams) {
		if i < pfMaxSummaryParams {
			pass.Facts.Export(fd.obj, factPFFlush(i))
		}
	}
	if w.flushedRecv {
		pass.Facts.Export(fd.obj, factPFFlushRecv)
	}
	for _, l := range exit.SortedLocs() {
		v := exit.Locs[l]
		if v.Unstable {
			continue
		}
		pi := dataflow.ParamIndex(l, sig)
		recv := dataflow.IsReceiverRooted(l, sig)
		switch v.S {
		case dataflow.PSDirty:
			if pi >= 0 && pi < pfMaxSummaryParams {
				pass.Facts.Export(fd.obj, factPFDirty(pi))
			} else if recv {
				pass.Facts.Export(fd.obj, factPFDirtyRecv)
			}
		case dataflow.PSFlushed:
			if pi >= 0 && pi < pfMaxSummaryParams {
				pass.Facts.Export(fd.obj, factPFFlushed(pi))
			} else if recv {
				pass.Facts.Export(fd.obj, factPFFlushedRecv)
			}
		}
	}
	if exit.FenceValid {
		pass.Facts.Export(fd.obj, factPFEndFence)
		if exit.FenceDurable {
			pass.Facts.Export(fd.obj, factPFEndDurable)
		}
	}
}

func signatureOf(obj *types.Func) *types.Signature {
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// pfMode selects which findings a walker emits.
type pfMode int

const (
	// pfModeSummarize: solve only, no reports (fact extraction).
	pfModeSummarize pfMode = iota
	// pfModeDiscipline: persistflow's obligation checks.
	pfModeDiscipline
	// pfModeOptimize: redundantbarrier's redundancy claims.
	pfModeOptimize
	// pfModeObserve: no reports at all — the walker only records
	// per-flush-site pre-states into flushPre for flushcoalesce's
	// refusal oracle.
	pfModeObserve
)

// pfWalker analyzes one function declaration (and its nested literals)
// with the persist-state abstract interpreter.
type pfWalker struct {
	pass *Pass
	info *types.Info
	mode pfMode

	// Per-body state, reset by analyze.
	res *dataflow.Resolver
	sig *types.Signature
	// tryBound maps a single-assignment `ok := t.TryLock(lk)` result to
	// its call, for branch-sensitive depth tracking.
	tryBound tryLockBinds

	// noCaller marks a function its package never references: no
	// analyzed caller inherits its obligations, so atReturn reports its
	// parameter- and receiver-rooted ones too.
	noCaller bool

	// Flags collected during the solve, consulted during the replay.
	anyPM      bool // any PM persistency effect
	anyUnknown bool // a call with unseeable effects
	// anyUnknownSink, when set, additionally taints the enclosing
	// function's walker (a nested literal with unknown calls makes the
	// whole declaration opaque to summaries).
	anyUnknownSink *bool
	flushedParams  map[int]bool
	flushedRecv    bool

	// flushPre, when non-nil, collects the abstract state immediately
	// BEFORE each flush call reached during the replay (keyed by call
	// position) — flushcoalesce consults it to refuse merges over
	// Unstable or symbolically-offset same-base locations. Flushes
	// inside nested literals run under a fresh walker and are not
	// recorded, so coalescing conservatively refuses there.
	flushPre map[token.Pos]dataflow.PMState

	reported map[token.Pos]bool
}

func newPFWalker(pass *Pass, mode pfMode) *pfWalker {
	return &pfWalker{
		pass:          pass,
		info:          pass.Pkg.Info,
		mode:          mode,
		flushedParams: map[int]bool{},
		reported:      map[token.Pos]bool{},
	}
}

func (w *pfWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

func (w *pfWalker) reportEdit(pos token.Pos, edit *SuggestedEdit, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.ReportEdit(pos, edit, format, args...)
}

// analyze solves one body, replays it for reports (unless
// summarizing), recurses into nested literals, and returns the exit
// state.
func (w *pfWalker) analyze(body *ast.BlockStmt, sig *types.Signature) dataflow.PMState {
	w.res = dataflow.NewResolver(w.info, body)
	w.sig = sig
	w.tryBound = bindTryLocks(w.info, body)
	cfg := dataflow.Build(body)
	// Range-over-func operands: the CFG loops the yield-closure body
	// (effects inside it flow into the loop), but the iterator function
	// itself runs arbitrary code between yields that the CFG cannot
	// see. Treat evaluating such an operand as an unknown call — the
	// function degrades to Unstable rather than mis-summarizing.
	rangeFn := map[ast.Node]bool{}
	for _, rs := range cfg.Ranges {
		if tv, ok := w.info.Types[rs.X]; ok && tv.Type != nil {
			if _, isFn := tv.Type.Underlying().(*types.Signature); isFn {
				rangeFn[rs.X] = true
			}
		}
	}
	tr := &pfTransfer{w: w, rangeFn: rangeFn}
	res := dataflow.Solve[dataflow.PMState](cfg, tr)
	exit, _ := res.In[cfg.Exit]
	if w.mode != pfModeSummarize {
		rep := &pfTransfer{w: w, report: true, rangeFn: rangeFn}
		for _, blk := range cfg.Blocks {
			in, ok := res.In[blk]
			if !ok {
				continue
			}
			dataflow.FlowThrough(blk, in, rep)
		}
		if w.mode == pfModeDiscipline {
			w.atReturn(exit)
		}
	}
	for _, lit := range tr.lits {
		// A nested literal is a separate function with its own frame;
		// captured roots are locals of the analysis, so obligations stay
		// local to the literal.
		sub := newPFWalker(w.pass, w.mode)
		sub.anyUnknownSink = &w.anyUnknown
		sub.analyze(lit.Body, nil)
		w.anyPM = w.anyPM || sub.anyPM
	}
	return exit
}

// atReturn reports locations that escape the function in a bad state.
// Parameter- and receiver-rooted locations are the caller's obligation
// (exported as facts by pfSummarize) and stay silent here, unless no
// caller exists to inherit them.
func (w *pfWalker) atReturn(exit dataflow.PMState) {
	for _, l := range exit.SortedLocs() {
		v := exit.Locs[l]
		if !w.noCaller && (dataflow.ParamIndex(l, w.sig) >= 0 || dataflow.IsReceiverRooted(l, w.sig)) {
			continue
		}
		switch v.S {
		case dataflow.PSDirty:
			w.reportf(v.Origin, "PM location %s is still dirty at return: no flush on this path covers it before the caller can observe the data", l)
		case dataflow.PSFlushed:
			w.reportf(v.Origin, "PM location %s is flushed but never ordered by a barrier before return", l)
		}
	}
}

// pfTransfer is the dataflow client for the persist-state lattice.
type pfTransfer struct {
	w      *pfWalker
	report bool
	lits   []*ast.FuncLit
	seen   map[*ast.FuncLit]bool
	// rangeFn marks func-typed range operands (go 1.23+ iterators);
	// evaluating one degrades the state like an unknown call.
	rangeFn map[ast.Node]bool
}

func (t *pfTransfer) Entry() dataflow.PMState { return dataflow.NewPMState() }

func (t *pfTransfer) Node(n ast.Node, s dataflow.PMState, _ bool) dataflow.PMState {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if !t.report {
				if t.seen == nil {
					t.seen = map[*ast.FuncLit]bool{}
				}
				if !t.seen[x] {
					t.seen[x] = true
					t.lits = append(t.lits, x)
				}
			}
			return false
		case *ast.CallExpr:
			s = t.call(x, n, s)
		}
		return true
	})
	if t.rangeFn[n] {
		t.w.noteUnknown()
		s = s.WithUnknownCall()
	}
	return s
}

func (t *pfTransfer) Branch(cond ast.Expr, outcome bool, s dataflow.PMState) dataflow.PMState {
	if !outcome {
		return s
	}
	call := t.w.tryBound.condCall(t.w.info, cond)
	if call == nil {
		return s
	}
	switch classifyPMOp(calleeOf(t.w.info, call)).Kind {
	case pmTryLockMachine:
		ns := s.WithDepths(1, 1)
		ns.FenceValid = false
		return ns
	case pmTryLockRaw:
		ns := s.WithDepths(1, 0)
		ns.FenceValid = false
		return ns
	}
	return s
}

func (t *pfTransfer) Join(a, b dataflow.PMState) dataflow.PMState { return dataflow.JoinPM(a, b) }
func (t *pfTransfer) Equal(a, b dataflow.PMState) bool            { return dataflow.EqualPM(a, b) }

// call interprets one call expression. top is the CFG node the call
// was found under (the enclosing statement when the call is standalone
// — the anchor for suggested deletions).
func (t *pfTransfer) call(call *ast.CallExpr, top ast.Node, s dataflow.PMState) dataflow.PMState {
	w := t.w
	if isNonCallExpr(w.info, call) {
		return s // conversion or builtin: persistency-pure
	}
	fn := calleeOf(w.info, call)
	if fn == nil {
		w.noteUnknown()
		return s.WithUnknownCall()
	}
	op := classifyPMOp(fn)
	switch op.Kind {
	case pmPure:
		return s

	case pmStoreSpec, pmStorePrivate:
		w.anyPM = true
		if op.AddrArg >= len(call.Args) {
			w.noteUnknown()
			return s.WithUnknownCall()
		}
		if t.report && w.mode == pfModeDiscipline && op.Kind == pmStoreSpec &&
			s.LockDepth > 0 && s.SpecDepth == 0 {
			w.reportf(call.Pos(), "spec-tracked PM store inside a lock-protected region has no open SpecAssign span (§6: misspeculation on it cannot be detected)")
		}
		ns, _ := s.WithStore(w.res.Loc(call.Args[op.AddrArg]), call.Pos())
		return ns

	case pmFlush:
		w.anyPM = true
		if op.AddrArg >= len(call.Args) {
			w.noteUnknown()
			return s.WithUnknownCall()
		}
		l := w.res.Loc(call.Args[op.AddrArg])
		w.noteFlush(l)
		if t.report && w.flushPre != nil {
			w.flushPre[call.Pos()] = s
		}
		ns, eff := s.WithFlush(l, flushSize(w.info, call, op), call.Pos())
		if t.report && w.mode == pfModeOptimize && eff.Redundant && op.Removable {
			w.reportEdit(call.Pos(), w.pass.deleteStmtEdit(top, call),
				"redundant flush of %s: every PM location it covers is already flushed or better on all paths (safe to delete)", l.Base)
		}
		return ns

	case pmFenceOrder, pmFenceDurable:
		w.anyPM = true
		if t.report && w.mode == pfModeDiscipline {
			for _, l := range s.SortedLocs() {
				v := s.Locs[l]
				if v.S == dataflow.PSDirty && v.WrongEpoch {
					w.reportf(v.Origin, "PM store to %s overwrites a flushed block before its ordering barrier and is never re-flushed (wrong epoch): the barrier fences a stale value", l)
				}
			}
		}
		ns, redundant := s.WithFence(call.Pos(), op.Kind == pmFenceDurable)
		if t.report && w.mode == pfModeOptimize && redundant && op.Removable {
			prev := w.pass.Fset.Position(s.FencePos)
			w.reportEdit(call.Pos(), w.pass.deleteStmtEdit(top, call),
				"redundant fence: no PM store or flush since the barrier at line %d on any path (pure stall, safe to delete)", prev.Line)
		}
		return ns

	case pmLockMachine, pmLockRaw:
		w.anyPM = true
		dSpec := 0
		if op.Kind == pmLockMachine {
			dSpec = 1
		}
		ns := s.WithDepths(1, dSpec)
		ns.FenceValid = false
		return ns

	case pmTryLockMachine, pmTryLockRaw:
		// Success is modeled on the True branch edge. A discarded
		// (statement-level) TryLock may or may not acquire: the depths
		// become unknown. specpair flags the discard itself.
		w.anyPM = true
		ns := s.WithDepths(0, 0) // clone
		ns.FenceValid = false
		if es, ok := top.(*ast.ExprStmt); ok && ast.Unparen(es.X) == call {
			ns.LockDepth, ns.SpecDepth = dataflow.DepthUnknown, dataflow.DepthUnknown
		}
		return ns

	case pmUnlockMachine, pmUnlockRaw:
		w.anyPM = true
		if t.report && w.mode == pfModeDiscipline {
			for _, l := range s.SortedLocs() {
				v := s.Locs[l]
				line := w.pass.Fset.Position(call.Pos()).Line
				switch v.S {
				case dataflow.PSDirty:
					w.reportf(v.Origin, "PM location %s is still dirty at the lock release on line %d: no flush covers it before the commit point", l, line)
				case dataflow.PSFlushed:
					w.reportf(v.Origin, "PM location %s is flushed but not ordered by a barrier before the lock release on line %d", l, line)
				}
			}
		}
		dSpec := 0
		if op.Kind == pmUnlockMachine {
			dSpec = -1
		}
		ns := s.WithDepths(-1, dSpec)
		ns.FenceValid = false
		// Dirty locations were reported; drop them so one leak does not
		// cascade into the return check. Flushed ones stay: a barrier
		// after the release still orders them, and reportf dedupes a
		// second report at the same store.
		for k, v := range ns.Locs {
			if v.S == dataflow.PSDirty {
				delete(ns.Locs, k)
			}
		}
		return ns

	case pmSpecAssign:
		w.anyPM = true
		ns := s.WithDepths(0, 1)
		ns.FenceValid = false
		return ns

	case pmSpecRevoke:
		w.anyPM = true
		ns := s.WithDepths(0, -1)
		ns.FenceValid = false
		return ns
	}

	// Module function: apply its interprocedural summary if one exists.
	return t.applySummary(call, fn, s)
}

// applySummary interprets a call through the callee's exported facts.
// With no facts at all the callee is opaque and the state degrades.
func (t *pfTransfer) applySummary(call *ast.CallExpr, fn *types.Func, s dataflow.PMState) dataflow.PMState {
	w := t.w
	facts := w.pass.Facts
	if facts.Has(fn, factPFClean) {
		return s // no PM effects: barrier adjacency survives
	}
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := w.info.Selections[sel]; isSel {
			recvExpr = sel.X
		}
	}
	ns := s
	applied := false
	// Services first (the callee's flushes happen before its exit
	// obligations are observed), then obligations, then exit fence.
	for i := 0; i < len(call.Args) && i < pfMaxSummaryParams; i++ {
		if facts.Has(fn, factPFFlush(i)) {
			ns = t.summaryFlush(ns, w.res.Loc(call.Args[i]), call.Pos())
			applied = true
		}
	}
	if recvExpr != nil && facts.Has(fn, factPFFlushRecv) {
		ns = t.summaryFlush(ns, w.res.Loc(recvExpr), call.Pos())
		applied = true
	}
	for i := 0; i < len(call.Args) && i < pfMaxSummaryParams; i++ {
		if facts.Has(fn, factPFDirty(i)) {
			ns = ns.SetLoc(w.res.Loc(call.Args[i]), dataflow.PSDirty, call.Pos())
			applied = true
		} else if facts.Has(fn, factPFFlushed(i)) {
			ns = ns.SetLoc(w.res.Loc(call.Args[i]), dataflow.PSFlushed, call.Pos())
			applied = true
		}
	}
	if recvExpr != nil {
		if facts.Has(fn, factPFDirtyRecv) {
			ns = ns.SetLoc(w.res.Loc(recvExpr), dataflow.PSDirty, call.Pos())
			applied = true
		} else if facts.Has(fn, factPFFlushedRecv) {
			ns = ns.SetLoc(w.res.Loc(recvExpr), dataflow.PSFlushed, call.Pos())
			applied = true
		}
	}
	if facts.Has(fn, factPFEndFence) {
		ns, _ = ns.WithFence(call.Pos(), facts.Has(fn, factPFEndDurable))
		applied = true
	}
	if !applied {
		w.noteUnknown()
		return s.WithUnknownCall()
	}
	w.anyPM = true
	return ns
}

// summaryFlush applies a callee's pf:flush service: the covered
// locations are promoted like a local flush but marked unstable — the
// fact carries no range and is any-path (the callee may flush
// conditionally), so the optimizer must not build redundancy claims on
// it, while the discipline checks may still credit it.
func (t *pfTransfer) summaryFlush(s dataflow.PMState, l dataflow.Loc, pos token.Pos) dataflow.PMState {
	t.w.noteFlush(l)
	ns, _ := s.WithFlush(l, 0, pos)
	for k, v := range ns.Locs {
		if k.Base == l.Base && !v.Unstable {
			v.Unstable = true
			ns.Locs[k] = v
		}
	}
	return ns
}

func (w *pfWalker) noteFlush(l dataflow.Loc) {
	if pi := dataflow.ParamIndex(l, w.sig); pi >= 0 {
		w.flushedParams[pi] = true
	} else if dataflow.IsReceiverRooted(l, w.sig) {
		w.flushedRecv = true
	}
}

func (w *pfWalker) noteUnknown() {
	w.anyPM = true
	w.anyUnknown = true
	if w.anyUnknownSink != nil {
		*w.anyUnknownSink = true
	}
}
