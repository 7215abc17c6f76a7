// Package locklint checks the two locking invariants the pipeline's
// concurrent design depends on:
//
//  1. Consistent acquisition order. Every function contributes "A was held
//     while B was acquired" edges to a module-wide graph, with mutexes
//     identified by their declaration — "(nodeConn).mu", "var registryMu" —
//     so all shards of a sharded lock form one class and indices do not
//     matter. A cycle in the graph is a latent deadlock: two goroutines
//     taking the same pair of locks in opposite orders need only the wrong
//     interleaving. The join runs in the Finish hook of a whole-module run
//     (order of analysis cannot hide a cross-package inversion) and against
//     the dependencies' facts in vet's package-at-a-time mode.
//
//  2. No dynamic calls under a lock. Calling a func-valued struct field
//     (subscriber callback, commit hook) or a module-defined interface
//     method while holding a mutex hands control to code that may block, or
//     take the same lock and self-deadlock — the repo's subscription
//     registries copy the callback list and release before fanout for
//     exactly this reason. Standard-library interfaces (net.Conn, io.Writer)
//     are exempt: they are leaf I/O, not re-entrant module code.
//
// The held-set tracking is intra-procedural and branch-local: control-flow
// bodies get a copy of the held set, `defer mu.Unlock()` keeps the lock held
// to the end of the walk, and closures are skipped (they run elsewhere).
// Deliberate exceptions use `//powerapi:allow locklint <reason>`.
package locklint

import (
	"go/ast"
	"go/token"
	"go/types"

	"powerapi/internal/analysis/framework"
)

// Name is the analyzer's name, shared by fact keys and allow directives.
const Name = "locklint"

// Analyzer is the locklint analyzer.
var Analyzer = &framework.Analyzer{
	Name: Name,
	Doc: "check consistent mutex acquisition order across the module and " +
		"forbid calls into callbacks or module interfaces while a lock is held",
	Run:    run,
	Finish: finish,
}

// Edge is one observed acquisition order: To was locked while From was held.
type Edge struct {
	From string    `json:"from"`
	To   string    `json:"to"`
	Pos  token.Pos `json:"pos"` // process-local
	Site string    `json:"site"`
}

// PackageFact is a package's contribution to the module lock-order graph.
type PackageFact struct {
	Edges []Edge `json:"edges"`
}

// heldLock is one mutex currently held during the walk.
type heldLock struct {
	class string // "" when the mutex has no stable cross-package key (locals)
	site  string
	pos   token.Pos
}

type checker struct {
	pass  *framework.Pass
	edges []Edge
	seen  map[[2]string]bool
}

func run(pass *framework.Pass) error {
	c := &checker{pass: pass, seen: make(map[[2]string]bool)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fn.Body == nil {
				continue
			}
			c.walkStmts(fn.Body.List, make(map[types.Object]heldLock))
		}
	}
	pass.ExportPackageFact(PackageFact{Edges: c.edges})
	if !pass.Deferred {
		// vet mode: no Finish will fire; join this package's edges against
		// the facts of its dependencies. Only edges positioned here are
		// reported — dependency inversions were reported when the dependency
		// itself was vetted.
		detectInversions(pass.Store(), pass.Pkg.Path(), pass.Report)
	}
	return nil
}

func finish(ctx *framework.FinishContext) {
	detectInversions(ctx.Store, "", ctx.Report)
}

// walkStmts tracks the held set through one statement list. Control-flow
// bodies get their own copy so a branch-local Lock/Unlock pair does not leak.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[types.Object]heldLock) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			c.walkStmts(s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				c.walkStmts([]ast.Stmt{s.Init}, held)
			}
			c.scanExpr(s.Cond, held)
			c.walkStmts(s.Body.List, copyHeld(held))
			if s.Else != nil {
				c.walkStmts([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			c.walkStmts(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			c.scanExpr(s.X, held)
			c.walkStmts(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, clause := range clauseBodies(s) {
				c.walkStmts(clause, copyHeld(held))
			}
		case *ast.LabeledStmt:
			c.walkStmts([]ast.Stmt{s.Stmt}, held)
		case *ast.GoStmt:
			// The goroutine runs without this goroutine's locks.
		case *ast.DeferStmt:
			if op, obj, _ := c.mutexOp(s.Call); obj != nil && isRelease(op) {
				// defer mu.Unlock(): held to the end of the function, which
				// the linear walk models by simply not releasing.
				continue
			}
		default:
			c.scanStmt(stmt, held)
		}
	}
}

// scanStmt handles straight-line statements: every call is inspected in
// source order for lock operations and for dynamic calls under a lock.
func (c *checker) scanStmt(stmt ast.Stmt, held map[types.Object]heldLock) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false // runs elsewhere, with its own held set
		case *ast.CallExpr:
			c.handleCall(e, held)
		}
		return true
	})
}

func (c *checker) scanExpr(expr ast.Expr, held map[types.Object]heldLock) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.handleCall(e, held)
		}
		return true
	})
}

func (c *checker) handleCall(call *ast.CallExpr, held map[types.Object]heldLock) {
	op, obj, pos := c.mutexOp(call)
	switch {
	case obj != nil && isAcquire(op):
		class, site := c.classOf(obj), c.pass.Fset.Position(pos).String()
		for _, h := range held {
			if h.class != "" && class != "" && h.class != class {
				c.edges = append(c.edges, Edge{From: h.class, To: class, Pos: pos, Site: site})
			}
		}
		held[obj] = heldLock{class: class, site: site, pos: pos}
	case obj != nil && isRelease(op):
		delete(held, obj)
	case obj == nil && op == "":
		if len(held) > 0 {
			c.checkDynamicCall(call, held)
		}
	}
}

// mutexOp recognizes sync.Mutex/RWMutex method calls, resolving the mutex to
// its declaring variable or field.
func (c *checker) mutexOp(call *ast.CallExpr) (op string, obj types.Object, pos token.Pos) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, token.NoPos
	}
	fn, isFunc := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, token.NoPos
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, token.NoPos
	}
	return fn.Name(), c.mutexObject(sel.X), call.Pos()
}

// mutexObject unwraps `s.shards[i].mu` / `(&reg).mu` / `mu` down to the
// identifier declaring the mutex, erasing indices so every shard of a sharded
// lock is one class.
func (c *checker) mutexObject(expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return c.pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			return c.pass.TypesInfo.Uses[e.Sel]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// classOf maps a mutex's declaring object to its module-wide class name, or
// "" for objects with no stable key (locals).
func (c *checker) classOf(obj types.Object) string {
	pkg, key, keyed := c.pass.Store().ObjectKey(obj)
	if !keyed {
		return ""
	}
	return pkg + "." + key
}

// checkDynamicCall flags calls that hand control to module code while a lock
// is held: func-valued struct fields (callbacks) and methods of interfaces
// defined in this module.
func (c *checker) checkDynamicCall(call *ast.CallExpr, held map[types.Object]heldLock) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return
	}
	var what string
	switch obj := c.pass.TypesInfo.Uses[sel.Sel].(type) {
	case *types.Var:
		if !obj.IsField() {
			return
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
			return
		}
		what = "func-valued field " + obj.Name()
	case *types.Func:
		selection := c.pass.TypesInfo.Selections[sel]
		if selection == nil {
			return
		}
		recv := selection.Recv()
		if _, isIface := recv.Underlying().(*types.Interface); !isIface {
			return
		}
		named, isNamed := recv.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return
		}
		if c.pass.IsModulePkg == nil || !c.pass.IsModulePkg(named.Obj().Pkg().Path()) {
			return // stdlib interfaces (net.Conn, io.Writer) are leaf I/O
		}
		what = "method " + named.Obj().Name() + "." + obj.Name() + " of a module interface"
	default:
		return
	}
	h := anyHeld(held)
	c.pass.Reportf(call.Pos(),
		"calls %s while holding %s (locked at %s): callbacks must not run under a lock",
		what, describe(h), h.site)
}

// anyHeld picks the held lock with the smallest position, for deterministic
// diagnostics.
func anyHeld(held map[types.Object]heldLock) heldLock {
	var best heldLock
	first := true
	for _, h := range held {
		if first || h.pos < best.pos {
			best, first = h, false
		}
	}
	return best
}

func describe(h heldLock) string {
	if h.class != "" {
		return h.class
	}
	return "a mutex"
}

func isAcquire(op string) bool { return op == "Lock" || op == "RLock" }
func isRelease(op string) bool { return op == "Unlock" || op == "RUnlock" }

// clauseBodies extracts the statement lists of a switch or select statement's
// clauses.
func clauseBodies(stmt ast.Stmt) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	var list []ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		list = s.Body.List
	case *ast.TypeSwitchStmt:
		list = s.Body.List
	case *ast.SelectStmt:
		list = s.Body.List
	}
	for _, clause := range list {
		switch cl := clause.(type) {
		case *ast.CaseClause:
			bodies = append(bodies, cl.Body)
		case *ast.CommClause:
			bodies = append(bodies, cl.Body)
		}
	}
	return bodies
}

func copyHeld(held map[types.Object]heldLock) map[types.Object]heldLock {
	out := make(map[types.Object]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// detectInversions joins every package's edges into one graph and reports
// each edge that completes a cycle: acquiring B while holding A when B is
// already ordered before A somewhere in the module. When onlyPkg is set,
// only edges contributed by that package are eligible to be reported (the
// graph itself is always module-wide).
func detectInversions(store *framework.Store, onlyPkg string, report func(framework.Diagnostic)) {
	adj := make(map[string][]Edge)
	var candidates []Edge
	for _, entry := range store.Facts(Name) {
		var fact PackageFact
		if !store.Get(Name, entry.Pkg, entry.Obj, &fact) {
			continue
		}
		for _, e := range fact.Edges {
			adj[e.From] = append(adj[e.From], e)
			if onlyPkg == "" || entry.Pkg == onlyPkg {
				candidates = append(candidates, e)
			}
		}
	}
	for _, e := range candidates {
		if back := pathEdge(adj, e.To, e.From); back != nil {
			report(framework.Diagnostic{
				Pos: e.Pos,
				Message: "lock order inversion: " + e.To + " acquired while holding " + e.From +
					", but " + back.To + " is acquired while holding " + back.From +
					" at " + back.Site + " — a concurrent pair of these paths deadlocks",
			})
		}
	}
}

// pathEdge reports whether to is reachable from from in the edge graph,
// returning the last edge of one such path (the direct witness of the
// opposite order).
func pathEdge(adj map[string][]Edge, from, to string) *Edge {
	visited := make(map[string]bool)
	var dfs func(node string) *Edge
	dfs = func(node string) *Edge {
		if visited[node] {
			return nil
		}
		visited[node] = true
		for i := range adj[node] {
			e := &adj[node][i]
			if e.To == to {
				return e
			}
			if w := dfs(e.To); w != nil {
				return w
			}
		}
		return nil
	}
	return dfs(from)
}
