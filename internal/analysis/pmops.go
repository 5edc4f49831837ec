package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// pmOpKind classifies one callee's effect on the PM persistency state.
// It is the shared vocabulary of the discipline analyzers (specpair's
// lock/spec stack, persistflow's persist-state lattice) and of the
// optimizers built on the persistflow engine.
type pmOpKind int

const (
	// pmOther: unclassified — a module function (possibly summarized by
	// facts) or a call with effects the analysis cannot see.
	pmOther pmOpKind = iota
	// pmPure: no PM persistency effect (getters, loads, clock reads).
	pmPure
	// pmStoreSpec: spec-tracked raw store (Thread.Store/StoreU64) — the
	// §6 spec-coverage rule applies.
	pmStoreSpec
	// pmStorePrivate: raw store without a speculation tag
	// (Thread.StorePrivate/StorePrivateU64) — exempt from §6, but still
	// subject to the flush/fence discipline.
	pmStorePrivate
	// pmFlush: pushes a PM range toward the persistence domain
	// (Model.Flush, Thread.CLWB).
	pmFlush
	// pmFenceOrder / pmFenceDurable: ordering and durability barriers.
	pmFenceOrder
	pmFenceDurable
	// Lock-family operations. The machine forms are lock+SpecAssign
	// (resp. SpecRevoke+release) units per §6; the raw sim forms move
	// only the lock depth.
	pmLockMachine
	pmLockRaw
	pmTryLockMachine
	pmTryLockRaw
	pmUnlockMachine
	pmUnlockRaw
	pmSpecAssign
	pmSpecRevoke
)

// pmOp is one classified call.
type pmOp struct {
	Kind pmOpKind
	// AddrArg is the index in call.Args of the PM address operand for
	// store/flush kinds, -1 otherwise (Model.Flush(t, a, n) carries the
	// address at 1; the Thread store/CLWB methods at 0).
	AddrArg int
	// SizeArg is the index in call.Args of the byte-length operand of a
	// pmFlush call, -1 when the flush has none (CLWB covers the cache
	// block containing the address, whose bounds depend on alignment).
	// Only meaningful for pmFlush.
	SizeArg int
	// Removable marks barrier/flush calls whose deletion is a legal
	// suggested edit when they prove redundant. NextUpdate is never
	// removable (it closes a failure-atomic update — on StrandWeaver it
	// opens a fresh strand, so it is not a plain barrier), and neither
	// are the spec/strand protocol barriers.
	Removable bool
}

// pfPureMethods lists known effect-free callees: receiver type name →
// method names. Anything not listed (and not otherwise classified)
// stays conservative.
var pfPureMethods = map[string][]string{
	"Thread": {"Core", "Clock", "Machine", "Sim", "Work", "Load", "LoadU64",
		"SpecID", "SaveSpecContext", "RestoreSpecContext"},
	"Model": {"Design"},
	"Mutex": {"Holder"},
}

// classifyPMOp maps a resolved callee to its PM-discipline effect.
func classifyPMOp(fn *types.Func) pmOp {
	none := pmOp{Kind: pmOther, AddrArg: -1}
	if fn == nil {
		return none
	}
	switch {
	case isMethod(fn, "internal/machine", "Thread", "Store"),
		isMethod(fn, "internal/machine", "Thread", "StoreU64"):
		return pmOp{Kind: pmStoreSpec, AddrArg: 0}
	case isMethod(fn, "internal/machine", "Thread", "StorePrivate"),
		isMethod(fn, "internal/machine", "Thread", "StorePrivateU64"):
		return pmOp{Kind: pmStorePrivate, AddrArg: 0}
	case isMethod(fn, "internal/persist", "Model", "Flush"):
		return pmOp{Kind: pmFlush, AddrArg: 1, SizeArg: 2, Removable: true}
	case isMethod(fn, "internal/machine", "Thread", "CLWB"):
		return pmOp{Kind: pmFlush, AddrArg: 0, SizeArg: -1, Removable: true}
	case isMethod(fn, "internal/persist", "Model", "OrderBarrier"):
		return pmOp{Kind: pmFenceOrder, AddrArg: -1, Removable: true}
	case isMethod(fn, "internal/persist", "Model", "NextUpdate"):
		return pmOp{Kind: pmFenceOrder, AddrArg: -1}
	case isMethod(fn, "internal/persist", "Model", "DurableBarrier"):
		return pmOp{Kind: pmFenceDurable, AddrArg: -1, Removable: true}
	case isMethod(fn, "internal/machine", "Thread", "SFence"),
		isMethod(fn, "internal/machine", "Thread", "OFence"):
		return pmOp{Kind: pmFenceOrder, AddrArg: -1, Removable: true}
	case isMethod(fn, "internal/machine", "Thread", "DFence"):
		return pmOp{Kind: pmFenceDurable, AddrArg: -1, Removable: true}
	case isMethod(fn, "internal/machine", "Thread", "PersistBarrier"):
		return pmOp{Kind: pmFenceOrder, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "SpecBarrier"),
		isMethod(fn, "internal/machine", "Thread", "JoinStrand"):
		return pmOp{Kind: pmFenceDurable, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "Lock"):
		return pmOp{Kind: pmLockMachine, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "TryLock"):
		return pmOp{Kind: pmTryLockMachine, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "Unlock"):
		return pmOp{Kind: pmUnlockMachine, AddrArg: -1}
	case isMethod(fn, "internal/sim", "Mutex", "Lock"):
		return pmOp{Kind: pmLockRaw, AddrArg: -1}
	case isMethod(fn, "internal/sim", "Mutex", "TryLock"):
		return pmOp{Kind: pmTryLockRaw, AddrArg: -1}
	case isMethod(fn, "internal/sim", "Mutex", "Unlock"):
		return pmOp{Kind: pmUnlockRaw, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "SpecAssign"):
		return pmOp{Kind: pmSpecAssign, AddrArg: -1}
	case isMethod(fn, "internal/machine", "Thread", "SpecRevoke"):
		return pmOp{Kind: pmSpecRevoke, AddrArg: -1}
	}
	for _, name := range pfPureMethods[recvTypeName(fn)] {
		if fn.Name() == name {
			return pmOp{Kind: pmPure, AddrArg: -1}
		}
	}
	return none
}

// tryLockBinds maps each local assigned exactly once, from a TryLock
// call (`ok := t.TryLock(lk)`), to that call, so a later branch on the
// variable can acquire the lock on its success edge. A variable
// assigned more than once stays unbound.
type tryLockBinds map[types.Object]*ast.CallExpr

func bindTryLocks(info *types.Info, body *ast.BlockStmt) tryLockBinds {
	bound := tryLockBinds{}
	dead := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if _, seen := bound[obj]; seen || dead[obj] {
				delete(bound, obj)
				dead[obj] = true
				continue
			}
			if len(as.Lhs) == len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					switch classifyPMOp(calleeOf(info, call)).Kind {
					case pmTryLockMachine, pmTryLockRaw:
						bound[obj] = call
						continue
					}
				}
			}
			dead[obj] = true
		}
		return true
	})
	return bound
}

// condCall returns the call a branch condition tests: the condition
// itself, or the TryLock call bound to a condition variable; nil
// otherwise.
func (b tryLockBinds) condCall(info *types.Info, cond ast.Expr) *ast.CallExpr {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		return e
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return b[obj]
	}
	return nil
}

// flushSize returns the byte length of a pmFlush call's range when its
// size operand is a compile-time constant, 0 otherwise (non-constant
// length, or a CLWB with no size operand at all).
func flushSize(info *types.Info, call *ast.CallExpr, op pmOp) int64 {
	if op.SizeArg < 0 || op.SizeArg >= len(call.Args) {
		return 0
	}
	tv, ok := info.Types[call.Args[op.SizeArg]]
	if !ok || tv.Value == nil {
		return 0
	}
	n, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || n < 0 {
		return 0
	}
	return n
}

// isNonCallExpr reports whether a CallExpr node is not actually a
// function call with PM-relevant effects: a type conversion
// (mem.Addr(x)) or a builtin (len, copy, append, ...). Both are
// address-transparent and persistency-pure.
func isNonCallExpr(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok {
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[fun.Sel].(*types.Builtin); ok {
			return true
		}
	}
	return false
}
