package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sync"
)

// This file defines the ONE notion of "operation that can block for an
// unbounded or externally controlled time": the lockhold check reads it
// for operations in a critical section and, through the call graph's
// mayBlock fact, for operations down a call chain. lockhold once
// hard-coded the cache.Client method list; it predated
// cache.Conn, ShardedClient and Replica, so new blocking surface area
// silently escaped the gate. The set is now *derived* from the
// cache.Conn interface: every method a connection-like implementation
// must provide is a potential network round trip (with retries and
// backoff), except the local accessors Stats and Close.
//
// The full blocking vocabulary:
//
//   - channel send / receive / range-over-channel
//   - select without a default clause (a select WITH default polls and
//     proceeds — the MemCache replication taps rely on exactly that
//     shape under their store lock, so it is deliberately non-blocking)
//   - time.Sleep
//   - sync.WaitGroup.Wait and sync.Cond.Wait
//   - net.Conn Read/Write (any method named Read/Write declared in net)
//     and net.Buffers.WriteTo (the vectored form of Write)
//   - cache dials (Dial, DialWith, DialSharded)
//   - cache.Conn-derived data ops on any cache-package receiver except
//     MemCache (whose ops are short in-memory critical sections)
//   - cache.Replica Stop/Promote (both wait on the replication
//     goroutine to drain)

// nonBlockingConnMethods are the cache.Conn members that are local
// accessors, not round trips.
var nonBlockingConnMethods = map[string]bool{
	"Stats": true,
	"Close": true,
}

var (
	blockMethodsMu   sync.Mutex
	blockMethodsMemo = map[*types.Package]map[string]bool{}
)

// blockingCacheMethods derives the blocking data-op method names for
// one loaded cache package: the method set of its Conn interface
// (flattened through the embedded Cache interface) minus the local
// accessors. Memoized per *types.Package.
func blockingCacheMethods(pkg *types.Package) map[string]bool {
	blockMethodsMu.Lock()
	defer blockMethodsMu.Unlock()
	if m, ok := blockMethodsMemo[pkg]; ok {
		return m
	}
	m := make(map[string]bool)
	if obj := pkg.Scope().Lookup("Conn"); obj != nil {
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				if name := iface.Method(i).Name(); !nonBlockingConnMethods[name] {
					m[name] = true
				}
			}
		}
	}
	blockMethodsMemo[pkg] = m
	return m
}

// replicaBlockingMethods block on Replica.wg draining the replication
// goroutine — an unbounded wait when the leader connection is wedged.
var replicaBlockingMethods = map[string]bool{
	"Stop":    true,
	"Promote": true,
}

// extraBlockingCacheMethods supplements the Conn-derived set with
// round-trip methods that are not part of the interface: the
// term-stamped write variants (each rides the same wire round trip as
// its plain counterpart, plus a topology refresh on a fence) and the
// topology-teaching client's lookup (which may dial the follower).
var extraBlockingCacheMethods = map[string]bool{
	"PutFenced": true, "DeleteFenced": true,
	"followerClient": true,
}

// cacheRoundTrip reports whether fn, a method of a cache package, is
// named in the blocking round-trip set: the Conn-derived data ops or
// their extras. It is the one list of cache data ops, which errdrop
// reads too.
func cacheRoundTrip(fn *types.Func) bool {
	return blockingCacheMethods(fn.Pkg())[fn.Name()] || extraBlockingCacheMethods[fn.Name()]
}

// blockingCall reports whether call resolves to a function or method
// from the shared blocking set, and a short description for the
// finding message. Channel operations and selects are not calls and
// are recognized structurally by the callers.
func blockingCall(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return "", false
	}
	path := funcPkgPath(fn)
	name := fn.Name()
	switch path {
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
		return "", false
	case "sync":
		if name == "Wait" {
			recv := "sync.WaitGroup"
			if named := recvNamed(p, call); named != nil {
				recv = "sync." + named.Obj().Name()
			}
			return recv + ".Wait", true
		}
		return "", false
	case "net":
		if name == "Read" || name == "Write" {
			return "net connection " + name, true
		}
		if named := recvNamed(p, call); name == "WriteTo" && named != nil && named.Obj().Name() == "Buffers" {
			return "net.Buffers.WriteTo (vectored write)", true
		}
		return "", false
	}
	if !isCachePkg(path) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		switch name {
		case "Dial", "DialWith", "DialSharded":
			return "cache." + name + " (network dial)", true
		}
		return "", false
	}
	named := recvNamed(p, call)
	if named != nil && named.Obj().Name() == "MemCache" {
		return "", false // in-memory store: short critical sections only
	}
	if named != nil && named.Obj().Name() == "Replica" {
		if replicaBlockingMethods[name] {
			return fmt.Sprintf("blocking Replica.%s call", name), true
		}
		return "", false
	}
	if !cacheRoundTrip(fn) {
		return "", false
	}
	recv := "cache.Client"
	if named != nil {
		recv = named.Obj().Name()
	}
	return fmt.Sprintf("blocking %s.%s call", recv, name), true
}
