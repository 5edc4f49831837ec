package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pmemspec/internal/analysis/dataflow"
)

// PersistOrder is the static persist-order analyzer: it builds a
// persist-order graph per function — nodes are PM stores (canonical
// access paths from the alias resolver), edges are per-design ordering
// guarantees derived from the order lattice (dataflow/order.go) — and
// verifies declared recovery invariants of the form "data persists
// before its commit marker".
//
// Invariants are declared with comment directives on (or directly
// above) PM store lines:
//
//	//persistorder:data <group>
//	//persistorder:commit <group> [on=IntelX86,DPO,...]
//
// For every design in the commit's scope (default: all five), every
// data store of the group must be provably durable before the marker
// store issues: flushed and fenced on that design's lowering
// (flush+SFence on IntelX86, OFence on HOPS, ...), durable-barriered,
// ordered by a lock acquisition that drains (IntelX86/DPO), born
// ordered (DPO's in-order persist buffer), or same-cache-block with
// the marker on a block-granular design (IntelX86). Calls are credited
// through per-design interprocedural facts (po:fence:<design>,
// po:durable:<design>) exported only for store-free callees — an
// any-path persist-state summary (pf:*) cannot support an order claim.
//
// What makes this different from persistflow: it checks each
// location's own persist STATE (everything flushed and fenced by
// return), which a function can satisfy while still writing its commit
// marker before its data is durable. persistorder checks the relative
// ORDER, per design — the property the litmus corpus
// (internal/litmus) validates against the crash-campaign simulator.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "static persist-order graph per function: verifies declared data-before-commit-marker invariants on every design (//persistorder:data / //persistorder:commit directives)",
	Run:  runPersistOrder,
}

// Per-design interprocedural order facts. Exported only for functions
// that are store-free and summary-closed on the design; see poExport.
func factPOFence(d dataflow.OrderDesign) string   { return "po:fence:" + d.String() }
func factPODurable(d dataflow.OrderDesign) string { return "po:durable:" + d.String() }

const poDirectivePrefix = "//persistorder:"

func runPersistOrder(pass *Pass) error {
	if !pathHasAny(pass.Pkg.Path, "/internal/workload", "/internal/fatomic", "/analysis/testdata") {
		return nil
	}
	decls := funcDecls(pass.Pkg)
	poSummarize(pass, decls)
	dirs := parsePODirectives(pass)
	for _, fd := range decls {
		if fd.decl.Body == nil || pass.SuppressedAt(fd.decl.Pos()) {
			continue
		}
		checkOrderFunc(pass, fd, dirs)
	}
	for _, d := range dirs.all {
		if !d.malformed && !d.bound {
			pass.Reportf(d.pos, "persistorder directive %s %s matches no PM store on this or the next line", d.verb, d.group)
		}
	}
	return nil
}

// poDirective is one parsed //persistorder: comment.
type poDirective struct {
	pos       token.Pos
	file      string
	line      int
	verb      string // "data" | "commit"
	group     string
	designs   []dataflow.OrderDesign // commit scope; empty = all designs
	malformed bool
	bound     bool // some PM store claimed it
}

type poDirectives struct {
	all []*poDirective
	// byLine: file → line → directives binding to a store on that line.
	// A directive on its own line binds to the next line.
	byLine map[string]map[int][]*poDirective
}

// parsePODirectives scans the package's comments, reporting malformed
// directives immediately.
func parsePODirectives(pass *Pass) *poDirectives {
	out := &poDirectives{byLine: map[string]map[int][]*poDirective{}}
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, poDirectivePrefix) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				d := &poDirective{pos: c.Pos(), file: p.Filename, line: p.Line}
				out.all = append(out.all, d)
				fields := strings.Fields(c.Text[len(poDirectivePrefix):])
				// A "//" field starts a nested trailing comment (fixture
				// // want expectations ride on directive lines).
				for i, f := range fields {
					if f == "//" {
						fields = fields[:i]
						break
					}
				}
				if len(fields) < 2 {
					d.malformed = true
					pass.Reportf(c.Pos(), "malformed persistorder directive: want //persistorder:data <group> or //persistorder:commit <group> [on=<design>,...]")
					continue
				}
				d.verb, d.group = fields[0], fields[1]
				if d.verb != "data" && d.verb != "commit" {
					d.malformed = true
					pass.Reportf(c.Pos(), "unknown persistorder directive %q (want data or commit)", d.verb)
					continue
				}
				for _, f := range fields[2:] {
					if on, ok := strings.CutPrefix(f, "on="); ok {
						if d.verb != "commit" {
							d.malformed = true
							pass.Reportf(c.Pos(), "persistorder: on= is only valid on a commit directive")
							break
						}
						for _, name := range strings.Split(on, ",") {
							dd, ok := dataflow.OrderDesignByName(name)
							if !ok {
								d.malformed = true
								pass.Reportf(c.Pos(), "persistorder: unknown design %q in on= (valid: %s)", name, orderDesignNames())
								break
							}
							d.designs = append(d.designs, dd)
						}
						if d.malformed {
							break
						}
					}
				}
				if d.malformed {
					continue
				}
				m := out.byLine[d.file]
				if m == nil {
					m = map[int][]*poDirective{}
					out.byLine[d.file] = m
				}
				m[d.line] = append(m[d.line], d)
			}
		}
	}
	return out
}

func orderDesignNames() string {
	var names []string
	for _, d := range dataflow.OrderDesigns() {
		names = append(names, d.String())
	}
	return strings.Join(names, ", ")
}

// poNode is one PM store site in a function's persist-order graph.
type poNode struct {
	pos    token.Pos
	line   int
	loc    dataflow.Loc
	width  int64 // 0 when unknown (byte-slice store)
	data   []*poDirective
	commit []*poDirective
}

// checkOrderFunc runs the per-design order solves over one function
// and reports directive violations.
func checkOrderFunc(pass *Pass, fd funcDecl, dirs *poDirectives) {
	info := pass.Pkg.Info
	res := dataflow.NewResolver(info, fd.decl.Body)

	// Collect store nodes in source order; ids are stable across the
	// per-design solves and the replay.
	var nodes []*poNode
	byPos := map[token.Pos]int{}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := ordClassify(calleeOf(info, call))
		if op.kind != ordStore || op.addrArg >= len(call.Args) {
			return true
		}
		p := pass.Fset.Position(call.Pos())
		node := &poNode{pos: call.Pos(), line: p.Line, loc: res.Loc(call.Args[op.addrArg]), width: op.width}
		fileDirs := dirs.byLine[p.Filename]
		for _, line := range []int{p.Line, p.Line - 1} {
			for _, d := range fileDirs[line] {
				d.bound = true
				if d.verb == "data" {
					node.data = append(node.data, d)
				} else {
					node.commit = append(node.commit, d)
				}
			}
		}
		byPos[call.Pos()] = len(nodes)
		nodes = append(nodes, node)
		return true
	})

	hasData, hasCommit := false, false
	for _, n := range nodes {
		hasData = hasData || len(n.data) > 0
		hasCommit = hasCommit || len(n.commit) > 0
	}
	if !hasData || !hasCommit {
		return
	}

	cfg := dataflow.Build(fd.decl.Body)
	rangeFn := funcTypedRangeOps(info, cfg)
	tryBound := bindTryLocks(info, fd.decl.Body)

	// violations: (data node, commit node) → designs, in canonical
	// design order (the outer loop).
	type pair struct{ d, c int }
	viol := map[pair][]dataflow.OrderDesign{}
	for _, design := range dataflow.OrderDesigns() {
		tr := &poTransfer{
			pass: pass, info: info, res: res, design: design,
			nodes: nodes, byPos: byPos, rangeFn: rangeFn, tryBound: tryBound,
		}
		result := dataflow.Solve[dataflow.OrderState](cfg, tr)
		for _, blk := range cfg.Blocks {
			in, ok := result.In[blk]
			if !ok {
				continue
			}
			chk := &poTransfer{
				pass: pass, info: info, res: res, design: design,
				nodes: nodes, byPos: byPos, rangeFn: rangeFn, tryBound: tryBound,
				check: func(c int, s dataflow.OrderState) {
					cn := nodes[c]
					for _, cd := range cn.commit {
						if !designInScope(design, cd.designs) {
							continue
						}
						for di, dn := range nodes {
							if di == c || !inGroup(dn.data, cd.group) {
								continue
							}
							st, issued := s.Node(di)
							if !issued {
								continue // store never issues before the marker: vacuous
							}
							if s.Ordered(di) {
								continue
							}
							if st.S != dataflow.ONPoisoned &&
								dataflow.LineCoalesce(design) &&
								dn.width > 0 && cn.width > 0 &&
								dataflow.SameOrderBlock(dn.loc, cn.loc) {
								continue // block-granular persistence path
							}
							key := pair{di, c}
							ds := viol[key]
							if len(ds) == 0 || ds[len(ds)-1] != design {
								viol[key] = append(ds, design)
							}
						}
					}
				},
			}
			dataflow.FlowThrough(blk, in, chk)
		}
	}

	keys := make([]pair, 0, len(viol))
	for k := range viol {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].c != keys[j].c {
			return keys[i].c < keys[j].c
		}
		return keys[i].d < keys[j].d
	})
	for _, k := range keys {
		dn, cn := nodes[k.d], nodes[k.c]
		var names []string
		for _, d := range viol[k] {
			names = append(names, d.String())
		}
		pass.Reportf(cn.pos,
			"PM store %s (persist-order group %q, line %d) is not provably persisted before this commit marker on %s: order it with a flush+fence chain valid on those designs, a durable barrier, or scope the invariant with on=",
			dn.loc, groupOf(dn.data, cn.commit), dn.line, strings.Join(names, ", "))
	}
}

func designInScope(d dataflow.OrderDesign, scope []dataflow.OrderDesign) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if s == d {
			return true
		}
	}
	return false
}

func inGroup(dirs []*poDirective, group string) bool {
	for _, d := range dirs {
		if d.group == group {
			return true
		}
	}
	return false
}

// groupOf names the group a (data, commit) violation belongs to.
func groupOf(data, commit []*poDirective) string {
	for _, c := range commit {
		if inGroup(data, c.group) {
			return c.group
		}
	}
	if len(data) > 0 {
		return data[0].group
	}
	return ""
}

// funcTypedRangeOps marks func-typed range operands (go 1.23+
// iterators): evaluating one is an unknowable event for order claims.
func funcTypedRangeOps(info *types.Info, cfg *dataflow.CFG) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	for _, rs := range cfg.Ranges {
		if tv, ok := info.Types[rs.X]; ok && tv.Type != nil {
			if _, isFn := tv.Type.Underlying().(*types.Signature); isFn {
				out[rs.X] = true
			}
		}
	}
	return out
}

// ordKind classifies a callee for the order lattice.
type ordKind int

const (
	ordUnknown ordKind = iota
	ordPure
	ordStore
	ordFlushModel // Model.Flush(t, a, n): exact byte range
	ordFlushCLWB  // Thread.CLWB(a): the containing cache block
	ordModel      // a ModelOp (design-generic barrier or machine lock)
	ordISA        // a raw ISA fence
)

type ordOp struct {
	kind    ordKind
	addrArg int
	sizeArg int
	width   int64 // store width; 0 = unknown
	model   dataflow.ModelOp
	isa     dataflow.ISAOp
	tryLock bool // Thread.TryLock: MLock on the success branch only
}

// ordClassify maps a callee to its order-lattice operation. It refines
// classifyPMOp: the order lattice needs the concrete operation (an
// SFence and an OFence lower differently per design), including
// Thread.NewStrand, which the persist-state vocabulary has no slot
// for.
func ordClassify(fn *types.Func) ordOp {
	none := ordOp{kind: ordUnknown, addrArg: -1, sizeArg: -1}
	if fn == nil {
		return none
	}
	switch {
	case isMethod(fn, "internal/machine", "Thread", "StoreU64"),
		isMethod(fn, "internal/machine", "Thread", "StorePrivateU64"):
		return ordOp{kind: ordStore, addrArg: 0, sizeArg: -1, width: 8}
	case isMethod(fn, "internal/machine", "Thread", "Store"),
		isMethod(fn, "internal/machine", "Thread", "StorePrivate"):
		return ordOp{kind: ordStore, addrArg: 0, sizeArg: -1} // byte-slice: width unknown
	case isMethod(fn, "internal/persist", "Model", "Flush"):
		return ordOp{kind: ordFlushModel, addrArg: 1, sizeArg: 2}
	case isMethod(fn, "internal/machine", "Thread", "CLWB"):
		return ordOp{kind: ordFlushCLWB, addrArg: 0, sizeArg: -1}
	case isMethod(fn, "internal/persist", "Model", "OrderBarrier"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MOrderBarrier}
	case isMethod(fn, "internal/persist", "Model", "NextUpdate"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MNextUpdate}
	case isMethod(fn, "internal/persist", "Model", "DurableBarrier"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MDurableBarrier}
	case isMethod(fn, "internal/machine", "Thread", "Lock"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MLock}
	case isMethod(fn, "internal/machine", "Thread", "Unlock"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MUnlock}
	case isMethod(fn, "internal/machine", "Thread", "TryLock"):
		return ordOp{kind: ordModel, addrArg: -1, sizeArg: -1, model: dataflow.MLock, tryLock: true}
	case isMethod(fn, "internal/machine", "Thread", "SFence"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.ISFence}
	case isMethod(fn, "internal/machine", "Thread", "OFence"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.IOFence}
	case isMethod(fn, "internal/machine", "Thread", "DFence"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.IDFence}
	case isMethod(fn, "internal/machine", "Thread", "PersistBarrier"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.IPersistBarrier}
	case isMethod(fn, "internal/machine", "Thread", "NewStrand"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.INewStrand}
	case isMethod(fn, "internal/machine", "Thread", "JoinStrand"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.IJoinStrand}
	case isMethod(fn, "internal/machine", "Thread", "SpecBarrier"):
		return ordOp{kind: ordISA, addrArg: -1, sizeArg: -1, isa: dataflow.ISpecBarrier}
	case isMethod(fn, "internal/machine", "Thread", "SpecAssign"),
		isMethod(fn, "internal/machine", "Thread", "SpecRevoke"),
		// Raw sim.Mutex operations bypass the machine's lockAcquired
		// hook: no design drains a persist path for them.
		isMethod(fn, "internal/sim", "Mutex", "Lock"),
		isMethod(fn, "internal/sim", "Mutex", "TryLock"),
		isMethod(fn, "internal/sim", "Mutex", "Unlock"):
		return ordOp{kind: ordPure, addrArg: -1, sizeArg: -1}
	}
	if classifyPMOp(fn).Kind == pmPure {
		return ordOp{kind: ordPure, addrArg: -1, sizeArg: -1}
	}
	return none
}

// poTransfer folds one function through the order lattice of one
// design.
type poTransfer struct {
	pass     *Pass
	info     *types.Info
	res      *dataflow.Resolver
	design   dataflow.OrderDesign
	nodes    []*poNode
	byPos    map[token.Pos]int
	rangeFn  map[ast.Node]bool
	tryBound tryLockBinds

	// check, when set (replay), is invoked with the state right before
	// each commit-marker store issues.
	check func(node int, s dataflow.OrderState)

	// Summary-mode flags (see poSummarize).
	summarize  bool
	anyStore   bool
	anyEpoch   bool
	anyUnknown bool
}

func (t *poTransfer) Entry() dataflow.OrderState { return dataflow.NewOrderState() }

func (t *poTransfer) Join(a, b dataflow.OrderState) dataflow.OrderState {
	return dataflow.JoinOrder(a, b)
}
func (t *poTransfer) Equal(a, b dataflow.OrderState) bool { return dataflow.EqualOrder(a, b) }

func (t *poTransfer) Node(n ast.Node, s dataflow.OrderState, _ bool) dataflow.OrderState {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Non-deferred literal bodies run when the value is called
			// (an indirect call — already unknown); deferred ones are
			// inlined into the epilogue by the CFG builder.
			return false
		case *ast.CallExpr:
			s = t.call(x, s)
		}
		return true
	})
	if t.rangeFn[n] {
		s = t.unknown(s)
	}
	return s
}

// Branch credits a successful Thread.TryLock on the true edge: the
// machine drains on acquisition exactly like Lock.
func (t *poTransfer) Branch(cond ast.Expr, outcome bool, s dataflow.OrderState) dataflow.OrderState {
	if !outcome {
		return s
	}
	if call := t.tryBound.condCall(t.info, cond); call != nil && ordClassify(calleeOf(t.info, call)).tryLock {
		return s.WithOrderEvent(dataflow.LowerModelOp(dataflow.MLock, t.design))
	}
	return s
}

func (t *poTransfer) unknown(s dataflow.OrderState) dataflow.OrderState {
	t.anyUnknown = true
	return s.WithOrderEvent(dataflow.OEUnknown)
}

func (t *poTransfer) call(call *ast.CallExpr, s dataflow.OrderState) dataflow.OrderState {
	if isNonCallExpr(t.info, call) {
		return s
	}
	fn := calleeOf(t.info, call)
	if fn == nil {
		return t.unknown(s)
	}
	op := ordClassify(fn)
	switch op.kind {
	case ordPure:
		return s

	case ordStore:
		if op.addrArg >= len(call.Args) {
			return t.unknown(s)
		}
		if t.summarize {
			t.anyStore = true
			return s
		}
		id, tracked := t.byPos[call.Pos()]
		if !tracked {
			return s
		}
		if t.check != nil && len(t.nodes[id].commit) > 0 {
			t.check(id, s)
		}
		return s.WithStoreNode(id, t.design)

	case ordFlushModel, ordFlushCLWB:
		ev := dataflow.LowerModelOp(dataflow.MFlush, t.design)
		if op.kind == ordFlushCLWB {
			ev = dataflow.LowerISAOp(dataflow.ICLWB, t.design)
		}
		if ev != dataflow.OEFlush || t.summarize {
			// No persist-path effect on this design; in summary mode
			// flushes are promote-only and nodes are untracked.
			return s
		}
		if op.addrArg >= len(call.Args) {
			return t.unknown(s)
		}
		fl := t.res.Loc(call.Args[op.addrArg])
		var size int64
		if op.sizeArg >= 0 {
			size = flushSize(t.info, call, pmOp{SizeArg: op.sizeArg})
		}
		block := op.kind == ordFlushCLWB
		return s.WithFlushEvent(func(id int) dataflow.OrderCoverage {
			return orderFlushCovers(t.nodes[id], fl, size, block)
		})

	case ordModel:
		if op.tryLock {
			// Statement-level (discarded) TryLock: the drain happens
			// only on success — crediting nothing is the sound floor,
			// and drains are promote-only so the unknown outcome
			// cannot invalidate existing edges. The success edge is
			// handled in Branch.
			return s
		}
		return t.event(s, dataflow.LowerModelOp(op.model, t.design))

	case ordISA:
		return t.event(s, dataflow.LowerISAOp(op.isa, t.design))
	}

	// Module call: per-design order facts, exported only for
	// store-free callees. A persist-state summary (pf:dirty/flushed/
	// endfence) is any-path and design-agnostic — a callee ending in a
	// raw SFence orders nothing on HOPS — so it cannot back an order
	// edge; pf:clean is the one exception (no PM effect at all).
	facts := t.pass.Facts
	switch {
	case facts.Has(fn, factPFClean):
		return s
	case facts.Has(fn, factPODurable(t.design)):
		return t.event(s, dataflow.OEDurable)
	case facts.Has(fn, factPOFence(t.design)):
		return t.event(s, dataflow.OEFence)
	}
	return t.unknown(s)
}

func (t *poTransfer) event(s dataflow.OrderState, ev dataflow.OrderEvent) dataflow.OrderState {
	if ev == dataflow.OEEpoch {
		t.anyEpoch = true
	}
	if ev == dataflow.OEUnknown {
		t.anyUnknown = true
	}
	return s.WithOrderEvent(ev)
}

// orderFlushCovers classifies one flush call against one store node.
// Mirrors PMState.WithFlush's coverage taxonomy, but for order claims
// indeterminate coverage must poison (a later fence would otherwise
// claim an edge the flush may not back).
func orderFlushCovers(n *poNode, fl dataflow.Loc, size int64, block bool) dataflow.OrderCoverage {
	if n.loc.Base == "" || fl.Base == "" || n.loc.Base != fl.Base {
		// Distinct canonical bases never alias (opaque roots are
		// distinct allocations); unknown bases compare unequal and the
		// node simply stays unflushed — sound: missing a promotion
		// only suppresses claims.
		return dataflow.OCoverNone
	}
	no, nok := dataflow.OffConst(n.loc.Off)
	fo, fok := dataflow.OffConst(fl.Off)
	if !nok || !fok {
		if n.loc.Off == fl.Off && !block && (n.width > 0 && size >= n.width || n.width == 0 && size > 0) {
			// Identical symbolic path, covering width.
			return dataflow.OCoverExact
		}
		return dataflow.OCoverMaybe
	}
	if n.width == 0 {
		return dataflow.OCoverMaybe // byte-slice store: unknown extent
	}
	if block {
		// CLWB covers the 64-byte block containing the address
		// (assuming a block-aligned base, the Heap.AllocBlock
		// contract).
		bs := int64(dataflow.OrderBlockSize)
		if no/bs == fo/bs && (no+n.width-1)/bs == fo/bs {
			return dataflow.OCoverExact
		}
		return dataflow.OCoverNone
	}
	if size <= 0 {
		return dataflow.OCoverMaybe // non-constant length
	}
	if no >= fo && no+n.width <= fo+size {
		return dataflow.OCoverExact
	}
	if no+n.width <= fo || no >= fo+size {
		return dataflow.OCoverNone
	}
	return dataflow.OCoverMaybe
}

// poSummarize exports the per-design order facts for the package's
// functions, with the same fixpoint-retry shape as pfSummarize: a
// function is finalized only when every callee it needs is already
// summarized. A function exports po:fence:<d> when, on design d, it is
// store-free, epoch-free and every path ends with at least an ordering
// fence in effect; po:durable:<d> when every path's exit guarantee is
// durable (epoch breaks allowed: a durable drain covers every strand).
// Store-free matters because a callee's store could land on a location
// the caller is tracking; such functions export nothing and calls to
// them poison.
func poSummarize(pass *Pass, decls []funcDecl) {
	for _, design := range dataflow.OrderDesigns() {
		done := make([]bool, len(decls))
		stable := false
		for !stable {
			changed := false
			for di, fd := range decls {
				if done[di] {
					continue
				}
				if fd.obj == nil || fd.decl.Body == nil || pass.SuppressedAt(fd.decl.Pos()) {
					done[di] = true
					continue
				}
				cfg := dataflow.Build(fd.decl.Body)
				tr := &poTransfer{
					pass: pass, info: pass.Pkg.Info,
					res:       dataflow.NewResolver(pass.Pkg.Info, fd.decl.Body),
					design:    design,
					byPos:     map[token.Pos]int{},
					rangeFn:   funcTypedRangeOps(pass.Pkg.Info, cfg),
					tryBound:  bindTryLocks(pass.Pkg.Info, fd.decl.Body),
					summarize: true,
				}
				result := dataflow.Solve[dataflow.OrderState](cfg, tr)
				if tr.anyUnknown {
					continue // retry once more facts land
				}
				done[di] = true
				changed = true
				exit, ok := result.In[cfg.Exit]
				if !ok || tr.anyStore {
					continue
				}
				if exit.Tail == dataflow.TFDurable {
					pass.Facts.Export(fd.obj, factPODurable(design))
					pass.Facts.Export(fd.obj, factPOFence(design))
				} else if exit.Tail == dataflow.TFOrder && !tr.anyEpoch {
					pass.Facts.Export(fd.obj, factPOFence(design))
				}
			}
			stable = !changed
		}
	}
}
