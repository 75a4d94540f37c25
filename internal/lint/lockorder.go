package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder detects lock-order cycles across the module's five interacting
// lock domains (master committer, fleet, registry, obs, scheduler): it builds a
// whole-program lock-acquisition graph whose nodes are mutex identities
// keyed on the declaring `Type.field` — every *Fleet value's `mu` is one
// node, so an order inversion between any two instances is caught — and
// reports every cycle. Edges come from two sources: a direct nested
// acquisition (B locked while A is held), and a call made while holding A
// to a function that (transitively, through the intra-module call graph)
// acquires B. The scan is linear per function like mutexheldio: func
// literals, go statements and deferred calls are skipped (they run
// outside the current hold), and a deferred Unlock keeps the mutex held
// to the end of the function.
//
// Self-edges (A -> A) are not reported: locking two instances of the same
// type is a different hazard (an ordering convention over instance
// identity) that this pass cannot check without value tracking.

// lockFnFact is the per-function fact of pass 1.
type lockFnFact struct {
	name     string         // types.Func full name
	acquires map[string]int // mutex identity -> line of first acquisition
	calls    []lockCall     // module functions called (anywhere in the body)
	edges    []lockEdge     // direct nested acquisitions
	held     []lockCall     // module calls made while holding a mutex
	file     string
}

type lockCall struct {
	callee string // for held entries: the held mutex is in `from`
	from   string
	line   int
}

type lockEdge struct {
	from, to string
	line     int
}

// Lockorder returns the cross-package lock-order cycle analyzer.
func Lockorder() *Analyzer {
	return &Analyzer{
		Name:    "lockorder",
		Doc:     "the module-wide lock-acquisition graph (Type.field identities) must be cycle-free",
		Collect: lockorderCollect,
		Finish:  lockorderFinish,
	}
}

func lockorderCollect(f *File, fx *Facts) {
	for _, decl := range f.Ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := f.declFullName(fd)
		if name == "" {
			continue
		}
		fact := &lockFnFact{name: name, acquires: map[string]int{}, file: f.Name}
		f.scanLockEvents(fd.Body, fact)
		if len(fact.acquires) == 0 && len(fact.calls) == 0 {
			continue
		}
		pos := f.pos(fd.Pos())
		fx.Put("lockorder", fmt.Sprintf("fn/%s@%s:%d", name, pos.Filename, pos.Line), fact)
	}
}

// scanLockEvents walks a body in source order, tracking the held-mutex
// set: Lock/RLock pushes (emitting a direct edge per already-held mutex),
// Unlock/RUnlock pops, and any module-function call is recorded both as a
// call-graph edge and — per held mutex — as a held call. Deferred
// statements, go statements and func literals are not entered; a deferred
// Unlock therefore never pops, which models "held to end of function".
func (f *File) scanLockEvents(body *ast.BlockStmt, fact *lockFnFact) {
	var held []lockEdge // from = identity, line = acquisition line
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				line := f.pos(v.Pos()).Line
				if id, op := f.lockIdentity(v); id != "" {
					switch op {
					case "Lock", "RLock":
						for _, h := range held {
							if h.from != id {
								fact.edges = append(fact.edges, lockEdge{from: h.from, to: id, line: line})
							}
						}
						held = append(held, lockEdge{from: id, line: line})
						if _, seen := fact.acquires[id]; !seen {
							fact.acquires[id] = line
						}
					case "Unlock", "RUnlock":
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].from == id {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}
					return true
				}
				if full, ok := f.moduleFunc(f.calleeFunc(v)); ok {
					fact.calls = append(fact.calls, lockCall{callee: full, line: line})
					for _, h := range held {
						fact.held = append(fact.held, lockCall{callee: full, from: h.from, line: line})
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// lockIdentity matches mu.Lock()/mu.Unlock()/RLock/RUnlock where mu is a
// sync.Mutex or sync.RWMutex, and returns the mutex's declaration-keyed
// identity: "pkg.Type.field" for a struct field, "pkg.name" otherwise.
func (f *File) lockIdentity(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	switch f.typeOf(sel.X) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", ""
	}
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if owner := f.typeOf(inner.X); owner != "" && !strings.Contains(owner, " ") {
			return owner + "." + inner.Sel.Name, sel.Sel.Name
		}
	}
	return f.Pkg.Path + "." + exprText(sel.X), sel.Sel.Name
}

// exprText renders a short expression for identity/reporting purposes.
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprText(v.X)
	case *ast.StarExpr:
		return exprText(v.X)
	case *ast.BinaryExpr:
		return exprText(v.X) + v.Op.String() + exprText(v.Y)
	}
	return "?"
}

// declFullName resolves a FuncDecl to its types.Func full name.
func (f *File) declFullName(fd *ast.FuncDecl) string {
	if fn, ok := f.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// edgeInfo locates one lock-graph edge for reporting.
type edgeInfo struct {
	file string
	line int
	via  string // "" for a direct nesting; callee name otherwise
}

func lockorderFinish(m *Module, fx *Facts) []Diagnostic {
	// Merge per-function facts (multiple init functions share a name).
	fns := map[string]*lockFnFact{}
	for _, key := range fx.Keys("lockorder") {
		v, _ := fx.Get("lockorder", key)
		fact := v.(*lockFnFact)
		if cur := fns[fact.name]; cur != nil {
			for id, line := range fact.acquires {
				if _, ok := cur.acquires[id]; !ok {
					cur.acquires[id] = line
				}
			}
			cur.calls = append(cur.calls, fact.calls...)
			cur.edges = append(cur.edges, fact.edges...)
			cur.held = append(cur.held, fact.held...)
		} else {
			fns[fact.name] = fact
		}
	}

	// Transitive acquisition sets over the intra-module call graph.
	memo := map[string]map[string]bool{}
	var reach func(name string, stack map[string]bool) map[string]bool
	reach = func(name string, stack map[string]bool) map[string]bool {
		if got, ok := memo[name]; ok {
			return got
		}
		if stack[name] {
			return nil // recursion: the cycle's own edges are still collected
		}
		fn := fns[name]
		if fn == nil {
			return nil
		}
		stack[name] = true
		out := map[string]bool{}
		for id := range fn.acquires {
			out[id] = true
		}
		for _, c := range fn.calls {
			for id := range reach(c.callee, stack) {
				out[id] = true
			}
		}
		delete(stack, name)
		memo[name] = out
		return out
	}

	// The lock graph: direct nested edges plus held-call closure edges.
	edges := map[string]map[string]edgeInfo{}
	addEdge := func(from, to string, info edgeInfo) {
		if from == to {
			return
		}
		byTo := edges[from]
		if byTo == nil {
			byTo = map[string]edgeInfo{}
			edges[from] = byTo
		}
		if cur, ok := byTo[to]; !ok || info.file < cur.file ||
			(info.file == cur.file && info.line < cur.line) {
			byTo[to] = info
		}
	}
	fnNames := make([]string, 0, len(fns))
	for n := range fns {
		fnNames = append(fnNames, n)
	}
	sort.Strings(fnNames)
	for _, n := range fnNames {
		fn := fns[n]
		for _, e := range fn.edges {
			addEdge(e.from, e.to, edgeInfo{file: fn.file, line: e.line})
		}
		for _, hc := range fn.held {
			for id := range reach(hc.callee, map[string]bool{}) {
				addEdge(hc.from, id, edgeInfo{file: fn.file, line: hc.line, via: hc.callee})
			}
		}
	}

	// Cycle detection: from each node (sorted), DFS for a path back to it;
	// report each cycle once, keyed on its sorted member set.
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	var out []Diagnostic
	for _, start := range nodes {
		path := findCycle(start, edges)
		if path == nil {
			continue
		}
		members := append([]string(nil), path...)
		sort.Strings(members)
		key := strings.Join(members, "|")
		if reported[key] {
			continue
		}
		reported[key] = true
		info := edges[path[0]][path[1%len(path)]]
		desc := strings.Join(append(path, path[0]), " -> ")
		msg := fmt.Sprintf("lock-order cycle: %s", desc)
		if info.via != "" {
			msg += fmt.Sprintf(" (via call to %s while %s held)", info.via, path[0])
		}
		out = append(out, Diagnostic{
			Pos:     token.Position{Filename: info.file, Line: info.line},
			Check:   "lockorder",
			Message: msg,
		})
	}
	return out
}

// findCycle returns the first (sorted-neighbor DFS) cycle through start,
// as the node sequence [start, …] without the closing repeat, or nil.
func findCycle(start string, edges map[string]map[string]edgeInfo) []string {
	var path []string
	onPath := map[string]bool{}
	visited := map[string]bool{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		path = append(path, n)
		onPath[n] = true
		tos := make([]string, 0, len(edges[n]))
		for to := range edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start && len(path) > 1 {
				return true
			}
			if onPath[to] || visited[to] {
				continue
			}
			if dfs(to) {
				return true
			}
		}
		path = path[:len(path)-1]
		onPath[n] = false
		visited[n] = true
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
