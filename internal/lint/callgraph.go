package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the lockhold, lockorder
// and goroleak checks: a module-wide call graph whose nodes are function
// declarations and function literals, each summarized with the facts the
// checks consume — which locks it acquires (and which were already held
// at that point), which calls it makes (and under which locks), which
// directly blocking operations it contains (and under which locks), and
// whether it can ever return. Three monotone fixpoints then propagate the per-function facts
// along call edges:
//
//	mayBlock  — the function can reach a blocking operation
//	everLocks — the lock classes the function may acquire, transitively
//	neverRet  — the function has no reachable termination path
//
// Soundness limits (see DESIGN.md §7): calls through function values,
// interfaces with no single static callee, and I/O hidden behind
// bufio/io.Writer indirection are not traversed; goroutine bodies do not
// inherit the spawning goroutine's held locks (true of the runtime, so
// no edges cross a `go` statement); lock identity is approximated by
// lock *class* (declaring type + field, or package-level variable), so
// two instances of one type are one class.

// A lock class is a stable identifier for "mutexes that play the same
// role": canon is the identity key (import path + type + field), disp
// the short human form ("cache.shardSlot.mu"), expr the operand as
// written at the Lock call ("c.mu").
type heldLock struct {
	canon string // "" when the operand cannot be canonicalized (locals)
	disp  string
	expr  string
	write bool // Lock rather than RLock
}

type acqSite struct {
	canon string
	disp  string
	write bool
	pos   token.Pos
	held  []heldLock // locks already held at this acquisition
}

type callSite struct {
	callee   *funcNode // nil: external, builtin, or unresolved indirect
	pos      token.Pos
	held     []heldLock
	deferred bool
	topLevel bool   // a direct statement of the outermost body list
	direct   string // non-empty: the call is itself a blocking op
}

type blockSite struct {
	desc string
	pos  token.Pos
	held []heldLock // locks held at the op; nil for a deferred call
}

type goSite struct {
	entry *funcNode // nil when the spawned callee cannot be resolved
	pos   token.Pos
}

// blockRef is a mayBlock witness: a direct blocking op (next == nil) or
// a call into next, whose own witness continues the chain.
type blockRef struct {
	desc    string
	pos     token.Pos
	next    *funcNode
	callPos token.Pos
}

// lockRef is an everLocks witness for one lock class.
type lockRef struct {
	disp    string
	write   bool
	pos     token.Pos // acquisition (direct) or call position
	next    *funcNode // non-nil: acquired somewhere inside next
	callPos token.Pos
}

// foreverRef is a neverRet witness: a direct unbounded loop (next ==
// nil) or an unconditional top-level call into a function that never
// returns.
type foreverRef struct {
	pos  token.Pos
	next *funcNode
}

type funcNode struct {
	p    *Package
	decl ast.Node // *ast.FuncDecl or *ast.FuncLit
	name string
	pos  token.Pos

	acquires []acqSite
	calls    []callSite
	blocks   []blockSite
	goSites  []goSite
	forever  []token.Pos // positions of direct no-exit unbounded loops

	mayBlock  *blockRef
	everLocks map[string]*lockRef
	neverRet  *foreverRef
}

// taggedFinding is a module-check finding attributed to the package it
// should be reported (and suppressed) in.
type taggedFinding struct {
	pkg *Package
	f   Finding
}

type graph struct {
	pkgs   []*Package
	nodes  []*funcNode
	byDecl map[ast.Node]*funcNode
	byObj  map[*types.Func]*funcNode
	cache  map[string][]taggedFinding // per-check module-wide findings
}

// buildGraph constructs and summarizes the call graph over pkgs. The
// universe is exactly the packages being analyzed: when the driver runs
// over ./... (the CI invocation) every module package is a node; a
// single-directory invocation only sees chains inside that package.
func buildGraph(pkgs []*Package) *graph {
	g := &graph{
		pkgs:   pkgs,
		byDecl: make(map[ast.Node]*funcNode),
		byObj:  make(map[*types.Func]*funcNode),
		cache:  make(map[string][]taggedFinding),
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					node := &funcNode{p: p, decl: d, pos: d.Pos(), name: funcDeclName(p, d)}
					g.nodes = append(g.nodes, node)
					g.byDecl[d] = node
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						g.byObj[fn] = node
					}
				case *ast.FuncLit:
					pos := p.Fset.Position(d.Pos())
					node := &funcNode{p: p, decl: d, pos: d.Pos(),
						name: fmt.Sprintf("func@%s:%d", filepath.Base(pos.Filename), pos.Line)}
					g.nodes = append(g.nodes, node)
					g.byDecl[d] = node
				}
				return true
			})
		}
	}
	for _, n := range g.nodes {
		g.summarize(n)
	}
	g.computeFacts()
	return g
}

func funcDeclName(p *Package, d *ast.FuncDecl) string {
	pkg := "?"
	if p.Types != nil {
		pkg = p.Types.Name()
	}
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		return pkg + "." + exprString(p, t) + "." + d.Name.Name
	}
	return pkg + "." + d.Name.Name
}

// summarize walks one function body collecting the node's fact sites.
// Lock tracking is lexical: a statement list is scanned sequentially,
// branch bodies get copies of the held set (a lock released on one path
// stays held on the fallthrough path — the serveConn early-return
// pattern), a deferred Unlock keeps the lock held to the end of the
// body, and function literals are their own nodes, not part of this
// body.
func (g *graph) summarize(n *funcNode) {
	var body *ast.BlockStmt
	switch d := n.decl.(type) {
	case *ast.FuncDecl:
		body = d.Body
	case *ast.FuncLit:
		body = d.Body
	}
	if body == nil {
		return
	}
	s := &summarizer{g: g, p: n.p, node: n}
	s.stmts(body.List, map[string]heldLock{}, true)
}

type summarizer struct {
	g    *graph
	p    *Package
	node *funcNode
}

func (s *summarizer) stmts(list []ast.Stmt, held map[string]heldLock, top bool) {
	for _, st := range list {
		s.stmt(st, held, top, "")
	}
}

func (s *summarizer) stmt(st ast.Stmt, held map[string]heldLock, top bool, label string) {
	switch stmt := st.(type) {
	case *ast.ExprStmt:
		if msel, method, ok := mutexCall(s.p, stmt.X); ok {
			key := exprString(s.p, msel.X)
			switch method {
			case "Lock", "RLock":
				canon, disp := lockClass(s.p, msel)
				hl := heldLock{canon: canon, disp: disp, expr: key, write: method == "Lock"}
				s.node.acquires = append(s.node.acquires, acqSite{
					canon: canon, disp: disp, write: hl.write,
					pos: stmt.Pos(), held: heldSnapshot(held),
				})
				held[key] = hl
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		s.scan(stmt.X, held, top)
	case *ast.DeferStmt:
		if _, method, ok := mutexCall(s.p, stmt.Call); ok && (method == "Unlock" || method == "RUnlock") {
			// Deferred unlock: held to the end of the body, which the
			// sequential scan models by never seeing a release.
			return
		}
		s.recordCall(stmt.Call, nil, true, false)
	case *ast.GoStmt:
		gs := goSite{pos: stmt.Pos()}
		if fun, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
			gs.entry = s.g.byDecl[fun]
		} else if fn := calleeFunc(s.p, stmt.Call); fn != nil {
			gs.entry = s.g.byObj[fn]
		}
		s.node.goSites = append(s.node.goSites, gs)
	case *ast.BlockStmt:
		s.stmts(stmt.List, copyHeldLocks(held), false)
	case *ast.IfStmt:
		if stmt.Init != nil {
			s.stmt(stmt.Init, held, false, "")
		}
		s.scan(stmt.Cond, held, false)
		s.stmts(stmt.Body.List, copyHeldLocks(held), false)
		switch e := stmt.Else.(type) {
		case *ast.BlockStmt:
			s.stmts(e.List, copyHeldLocks(held), false)
		case *ast.IfStmt:
			s.stmt(e, copyHeldLocks(held), false, "")
		}
	case *ast.ForStmt:
		if stmt.Init != nil {
			s.stmt(stmt.Init, held, false, "")
		}
		if stmt.Cond != nil {
			s.scan(stmt.Cond, held, false)
		}
		if stmt.Post != nil {
			s.stmt(stmt.Post, held, false, "")
		}
		if s.isForever(stmt, label) {
			s.node.forever = append(s.node.forever, stmt.Pos())
		}
		s.stmts(stmt.Body.List, copyHeldLocks(held), false)
	case *ast.RangeStmt:
		if t, ok := s.p.Info.Types[stmt.X]; ok && t.Type != nil {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				// Blocks between elements, but terminates when the
				// channel closes — not a forever loop.
				s.node.blocks = append(s.node.blocks, blockSite{"range over channel", stmt.Pos(), heldSnapshot(held)})
			}
		}
		s.scan(stmt.X, held, false)
		s.stmts(stmt.Body.List, copyHeldLocks(held), false)
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			s.stmt(stmt.Init, held, false, "")
		}
		if stmt.Tag != nil {
			s.scan(stmt.Tag, held, false)
		}
		for _, cc := range stmt.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				s.stmts(clause.Body, copyHeldLocks(held), false)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range stmt.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				s.stmts(clause.Body, copyHeldLocks(held), false)
			}
		}
	case *ast.SelectStmt:
		// A select WITH a default clause polls and proceeds — the MemCache
		// replication taps do exactly that under the store lock,
		// deliberately. Only a default-less select parks.
		if !selectHasDefault(stmt) {
			s.node.blocks = append(s.node.blocks, blockSite{"select (channel operations)", stmt.Pos(), heldSnapshot(held)})
		}
		for _, cc := range stmt.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				s.stmts(clause.Body, copyHeldLocks(held), false)
			}
		}
	case *ast.LabeledStmt:
		s.stmt(stmt.Stmt, held, false, stmt.Label.Name)
	default:
		if st != nil {
			s.scan(st, held, false)
		}
	}
}

func selectHasDefault(stmt *ast.SelectStmt) bool {
	for _, cc := range stmt.Body.List {
		if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
			return true
		}
	}
	return false
}

// scan records blocking ops and call sites anywhere inside node,
// excluding nested function literals (their bodies are their own
// graph nodes). Only the root expression of a top-level ExprStmt can
// yield a topLevel call site.
func (s *summarizer) scan(node ast.Node, held map[string]heldLock, top bool) {
	var rootCall *ast.CallExpr
	if e, ok := node.(ast.Expr); ok {
		rootCall, _ = ast.Unparen(e).(*ast.CallExpr)
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			s.node.blocks = append(s.node.blocks, blockSite{"channel send", x.Pos(), heldSnapshot(held)})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.node.blocks = append(s.node.blocks, blockSite{"channel receive", x.Pos(), heldSnapshot(held)})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				s.node.blocks = append(s.node.blocks, blockSite{"select (channel operations)", x.Pos(), heldSnapshot(held)})
			}
		case *ast.GoStmt:
			// reached only through odd nesting; conservatively skip
			return false
		case *ast.CallExpr:
			s.recordCall(x, heldSnapshot(held), false, top && x == rootCall)
		}
		return true
	})
}

func (s *summarizer) recordCall(call *ast.CallExpr, held []heldLock, deferred, top bool) {
	cs := callSite{pos: call.Pos(), held: held, deferred: deferred, topLevel: top}
	if desc, ok := blockingCall(s.p, call); ok {
		cs.direct = desc
		s.node.blocks = append(s.node.blocks, blockSite{desc, call.Pos(), held})
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		cs.callee = s.g.byDecl[fun] // immediately invoked literal
	} else if fn := calleeFunc(s.p, call); fn != nil {
		cs.callee = s.g.byObj[fn]
	}
	s.node.calls = append(s.node.calls, cs)
}

// isForever reports whether stmt is an unbounded loop (`for {}` or
// `for true {}`) with no reachable exit: no return, no break that
// leaves this loop, no goto, no panic.
func (s *summarizer) isForever(stmt *ast.ForStmt, label string) bool {
	if stmt.Cond != nil {
		tv, ok := s.p.Info.Types[stmt.Cond]
		if !ok || tv.Value == nil || tv.Value.String() != "true" {
			return false
		}
	}
	return !stmtsCanExit(stmt.Body.List, 0, label)
}

// stmtsCanExit reports whether executing list can leave the enclosing
// loop: depth counts intervening break targets (nested loops, switch,
// select), so an unlabeled break only counts at depth 0.
func stmtsCanExit(list []ast.Stmt, depth int, label string) bool {
	for _, st := range list {
		if stmtCanExit(st, depth, label) {
			return true
		}
	}
	return false
}

func stmtCanExit(st ast.Stmt, depth int, label string) bool {
	switch stmt := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch stmt.Tok {
		case token.BREAK:
			if stmt.Label == nil {
				return depth == 0
			}
			return stmt.Label.Name == label && label != ""
		case token.GOTO:
			return true // conservatively assume the jump leaves
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				// os.Exit, log.Fatal*, runtime.Goexit all terminate.
				switch sel.Sel.Name {
				case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln":
					return true
				}
			}
		}
	case *ast.BlockStmt:
		return stmtsCanExit(stmt.List, depth, label)
	case *ast.IfStmt:
		if stmtsCanExit(stmt.Body.List, depth, label) {
			return true
		}
		if stmt.Else != nil {
			return stmtCanExit(stmt.Else, depth, label)
		}
	case *ast.ForStmt:
		return stmtsCanExit(stmt.Body.List, depth+1, label)
	case *ast.RangeStmt:
		return stmtsCanExit(stmt.Body.List, depth+1, label)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := stmt.(*ast.SwitchStmt); ok {
			body = sw.Body
		} else {
			body = stmt.(*ast.TypeSwitchStmt).Body
		}
		for _, cc := range body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				if stmtsCanExit(clause.Body, depth+1, label) {
					return true
				}
			}
		}
	case *ast.SelectStmt:
		for _, cc := range stmt.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				if stmtsCanExit(clause.Body, depth+1, label) {
					return true
				}
			}
		}
	case *ast.LabeledStmt:
		return stmtCanExit(stmt.Stmt, depth, label)
	}
	return false
}

func copyHeldLocks(held map[string]heldLock) map[string]heldLock {
	cp := make(map[string]heldLock, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

// heldSnapshot renders the held map as a deterministic slice.
func heldSnapshot(held map[string]heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, 0, len(held))
	for _, v := range held {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].disp != out[j].disp {
			return out[i].disp < out[j].disp
		}
		return out[i].canon < out[j].canon
	})
	return out
}

// computeFacts seeds each node's local facts and iterates the three
// propagations to a fixpoint. The module graph is small (hundreds of
// nodes), so the quadratic worst case is irrelevant.
func (g *graph) computeFacts() {
	for _, n := range g.nodes {
		sort.Slice(n.blocks, func(i, j int) bool { return n.blocks[i].pos < n.blocks[j].pos })
		sort.Slice(n.calls, func(i, j int) bool { return n.calls[i].pos < n.calls[j].pos })
		sort.Slice(n.acquires, func(i, j int) bool { return n.acquires[i].pos < n.acquires[j].pos })
		n.everLocks = make(map[string]*lockRef)
		for i := range n.acquires {
			a := n.acquires[i]
			if a.canon == "" {
				continue
			}
			if _, ok := n.everLocks[a.canon]; !ok {
				n.everLocks[a.canon] = &lockRef{disp: a.disp, write: a.write, pos: a.pos}
			}
		}
		if len(n.blocks) > 0 {
			b := n.blocks[0]
			n.mayBlock = &blockRef{desc: b.desc, pos: b.pos}
		}
		if len(n.forever) > 0 {
			n.neverRet = &foreverRef{pos: n.forever[0]}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for i := range n.calls {
				cs := &n.calls[i]
				if cs.callee == nil {
					continue
				}
				if n.mayBlock == nil && cs.callee.mayBlock != nil {
					n.mayBlock = &blockRef{next: cs.callee, callPos: cs.pos}
					changed = true
				}
				for canon, ref := range cs.callee.everLocks {
					if _, ok := n.everLocks[canon]; !ok {
						n.everLocks[canon] = &lockRef{
							disp: ref.disp, write: ref.write,
							pos: cs.pos, next: cs.callee, callPos: cs.pos,
						}
						changed = true
					}
				}
				if n.neverRet == nil && cs.topLevel && !cs.deferred && cs.callee.neverRet != nil {
					n.neverRet = &foreverRef{pos: cs.pos, next: cs.callee}
					changed = true
				}
			}
		}
	}
}

// moduleFindings computes a module check's full finding set once (per
// graph, memoized) and returns the slice attributed to p.
func (g *graph) moduleFindings(name string, compute func(*graph) []taggedFinding, p *Package) []Finding {
	tf, ok := g.cache[name]
	if !ok {
		tf = compute(g)
		g.cache[name] = tf
	}
	var out []Finding
	for _, t := range tf {
		if t.pkg == p {
			out = append(out, t.f)
		}
	}
	return out
}

// renderBlockChain renders the witness chain from n down to the direct
// blocking op, "f -> g -> time.Sleep (file.go:42)".
func renderBlockChain(n *funcNode, fset *token.FileSet) string {
	var parts []string
	seen := make(map[*funcNode]bool)
	for n != nil && n.mayBlock != nil && !seen[n] {
		seen[n] = true
		parts = append(parts, n.name)
		if n.mayBlock.next == nil {
			pos := fset.Position(n.mayBlock.pos)
			parts = append(parts, fmt.Sprintf("%s (%s:%d)", n.mayBlock.desc, filepath.Base(pos.Filename), pos.Line))
			break
		}
		n = n.mayBlock.next
	}
	return strings.Join(parts, " -> ")
}

// renderLockChain renders the acquisition path of lock class canon
// starting at n, "f -> g" (the acquisition itself is rendered by the
// caller from the lockRef position).
func renderLockChain(n *funcNode, canon string) string {
	var parts []string
	seen := make(map[*funcNode]bool)
	for n != nil && !seen[n] {
		seen[n] = true
		parts = append(parts, n.name)
		ref := n.everLocks[canon]
		if ref == nil || ref.next == nil {
			break
		}
		n = ref.next
	}
	return strings.Join(parts, " -> ")
}

// posLess orders token positions deterministically by resolved
// file/line/col (Pos values across files depend on load order only,
// which is deterministic too, but filename order reads better).
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}

// lockClass canonicalizes the operand of msel (the `x.mu` in
// `x.mu.Lock()`): a struct field becomes "pkgpath.Type.field", a
// package-level var "pkgpath.name", an embedded sync.Mutex
// "pkgpath.Type.<embedded path>". Locals and parameters return canon ==
// "" — they are tracked lexically for the held set but generate no
// cross-function lock-order edges.
func lockClass(p *Package, msel *ast.SelectorExpr) (canon, disp string) {
	// Embedded mutex: x.Lock() resolves through one or more embedded
	// fields; name the class after the outer type plus the field path.
	if s := p.Info.Selections[msel]; s != nil && len(s.Index()) > 1 {
		if named := derefNamed(s.Recv()); named != nil {
			field := embeddedPath(named, s.Index())
			return typeCanon(named) + "." + field, typeDisp(named) + "." + field
		}
	}
	op := ast.Unparen(msel.X)
	switch x := op.(type) {
	case *ast.SelectorExpr:
		if s := p.Info.Selections[x]; s != nil {
			if named := derefNamed(s.Recv()); named != nil {
				field := s.Obj().Name()
				return typeCanon(named) + "." + field, typeDisp(named) + "." + field
			}
			return "", exprString(p, op)
		}
		// Package-qualified package-level var (pkg.mu).
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && packageLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok && packageLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
		}
	}
	return "", exprString(p, op)
}

func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func typeCanon(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func typeDisp(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// embeddedPath names the embedded-field chain the method selection
// travels through (all but the final method index).
func embeddedPath(named *types.Named, index []int) string {
	var parts []string
	t := types.Type(named)
	for _, idx := range index[:len(index)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			parts = append(parts, "embedded")
			break
		}
		f := st.Field(idx)
		parts = append(parts, f.Name())
		t = f.Type()
	}
	return strings.Join(parts, ".")
}
