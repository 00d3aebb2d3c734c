package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The errdrop check flags statements that silently discard the error
// result of a cache data operation (Put/Get/Delete/Keys/Len and
// the batched PutN/GetN on any internal/cache implementation), a
// replication-stream apply (Replica.ApplyRecord — a dropped apply error
// is a follower silently diverging from its leader), or an
// os.Setenv-style call. On a
// networked cache these errors are the *normal* signal of an outage —
// dropping one on the floor is how a worker keeps running with state
// it never stored (the PR 1 hang began as an unhandled publish
// failure). An explicit `_ = c.Delete(k)` is deliberately NOT flagged:
// the blank assignment is a visible, greppable decision to shed, which
// the shed-load paths in internal/live make on purpose.
func errdropCheck() Check {
	return Check{
		Name: "errdrop",
		Doc:  "forbid silently discarded errors from cache data ops and os.Setenv-style calls",
		Run:  runErrdrop,
	}
}

// errdropOSFuncs are the os package calls whose failure is almost
// always a real (and otherwise invisible) configuration bug.
var errdropOSFuncs = map[string]bool{
	"Setenv":   true,
	"Unsetenv": true,
}

func runErrdrop(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
				how = "discarded"
			case *ast.GoStmt:
				call = s.Call
				how = "discarded by go statement"
			case *ast.DeferStmt:
				call = s.Call
				how = "discarded by defer"
			default:
				return true
			}
			if call == nil {
				return true
			}
			if name, ok := errdropTarget(p, call); ok {
				out = append(out, Finding{
					Pos:   p.position(call.Pos()),
					Check: "errdrop",
					Message: fmt.Sprintf("error from %s %s; handle it or make the drop explicit with _ =",
						name, how),
				})
			}
			return true
		})
	}
	return out
}

// errdropTarget reports whether call returns an error the statement is
// dropping, and names the callee for the message.
func errdropTarget(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || !errorReturning(fn) {
		return "", false
	}
	path := funcPkgPath(fn)
	if path == "os" && errdropOSFuncs[fn.Name()] {
		return "os." + fn.Name(), true
	}
	if !isCachePkg(path) {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	switch fn.Name() {
	case "Put", "Get", "Delete", "Keys", "Len", "PutN", "GetN", "ApplyRecord",
		"PutFenced", "PutNFenced", "DeleteFenced":
	default:
		return "", false
	}
	recv := "cache.Cache"
	if named := recvNamed(p, call); named != nil {
		recv = named.Obj().Name()
	}
	return fmt.Sprintf("%s.%s", recv, fn.Name()), true
}
