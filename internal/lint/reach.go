package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The reach check flags an exported name in an internal/ package that
// no product code reaches: test files are never loaded, and packages
// with a benchmark path element are left out. A reference from the
// name's own package counts only from a reached declaration (main,
// init and package-level initialisers are); a concrete method is
// reached when it implements a reached interface method, the standard
// library's included. An exported field of an options struct must also
// be set by product code (fieldWrites). The rules are DESIGN.md §7's.
func reachCheck() Check {
	return Check{
		Name:      "reach",
		Doc:       "every exported name in internal/ is reached from product code, not only from tests or benchmark/, and every options field is set by it",
		runModule: func(g *graph, p *Package) []Finding { return g.moduleFindings("reach", reachFindings, p) },
	}
}

type reacher struct {
	refs    map[types.Object][]types.Object // declaration -> what it names
	reached map[types.Object]bool
	work    []types.Object
	impls   map[string][]*types.Selection // method name -> methods of *T, T a named product type
}

func (r *reacher) reach(o types.Object) {
	if !r.reached[o] {
		r.reached[o] = true
		r.work = append(r.work, o)
	}
}

// dispatch reaches every product method a call of interface method
// name on it can land on.
func (r *reacher) dispatch(name string, it *types.Interface) {
	for _, m := range r.impls[name] {
		if types.Implements(m.Recv(), it) {
			r.reach(origin(m.Obj()))
		}
	}
}

func reachFindings(g *graph) []taggedFinding {
	r := &reacher{refs: map[types.Object][]types.Object{}, reached: map[types.Object]bool{}, impls: map[string][]*types.Selection{}}
	seen := map[*types.Package]bool{}
	var product []*Package
	for _, p := range g.pkgs {
		seen[p.Types] = true
		if p.Types != nil && !strings.Contains("/"+p.Path+"/", "/benchmark/") {
			product = append(product, p)
			r.index(p)
		}
	}
	// The library calls Error, and errors.Is, As and Unwrap call these
	// three through unnamed interfaces.
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	r.reach(errIface.Method(0))
	for _, name := range []string{"Unwrap", "Is", "As"} {
		r.dispatch(name, errIface)
	}
	for _, p := range product { // every interface method of an imported standard package
		for _, imp := range p.Types.Imports() {
			if !seen[imp] {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					if it, ok := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							r.reach(it.Method(i))
						}
					}
				}
			}
		}
	}
	for len(r.work) > 0 {
		o := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		for _, ref := range r.refs[o] {
			r.reach(ref)
		}
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				r.dispatch(o.Name(), it)
			}
		}
	}

	var out []taggedFinding
	written := fieldWrites(product)
	flag := func(p *Package, o types.Object, name string) bool {
		dead := o.Exported() && !r.reached[o]
		if dead {
			out = append(out, taggedFinding{pkg: p, f: Finding{Pos: p.position(o.Pos()), Check: "reach",
				Message: name + " is reached by no product code, only by tests or benchmark/ if at all: delete it, or //lint:allow reach <reason>"}})
		}
		return dead
	}
	for _, p := range product {
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		for _, name := range p.Types.Scope().Names() {
			o := p.Types.Scope().Lookup(name)
			named, ok := o.Type().(*types.Named)
			if _, isType := o.(*types.TypeName); flag(p, o, name) || !isType || !ok {
				continue // a dead type's members are reported with it
			}
			for i := 0; i < named.NumMethods(); i++ {
				flag(p, named.Method(i), name+"."+named.Method(i).Name())
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if f.Embedded() || flag(p, f, name+"."+f.Name()) || !f.Exported() || !optionsStruct(name) || written[f] {
						continue
					}
					out = append(out, taggedFinding{pkg: p, f: Finding{Pos: p.position(f.Pos()), Check: "reach",
						Message: name + "." + f.Name() + " is set by no product code, only by tests, benchmark/ or its own defaults if at all: delete it, make it an unexported test hook, or //lint:allow reach <reason>"}})
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					flag(p, u.ExplicitMethod(i), name+"."+u.ExplicitMethod(i).Name())
				}
			}
		}
	}
	return out
}

// optionsStruct reports whether a struct named name is a bag of
// options, whose fields the reach check also wants set: Config, Hyper,
// or a name ending in Options or Config.
func optionsStruct(name string) bool {
	return name == "Hyper" || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// fieldWrites returns every struct field product code sets: a key of a
// keyed composite literal, the target of an assignment or an
// increment, or an operand of &, the form flag.XxxVar binds through. A
// write inside a method of the field's own struct does not count, as
// such a method (Normalize, withDefaults) only fills defaults.
func fieldWrites(product []*Package) map[types.Object]bool {
	written := map[types.Object]bool{}
	for _, p := range product {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				var own *types.Struct // the receiver's struct, in a method
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
					recv := p.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					if named, ok := recv.(*types.Named); ok {
						own, _ = named.Origin().Underlying().(*types.Struct)
					}
				}
				write := func(f types.Object) {
					if f, ok := f.(*types.Var); ok && f.IsField() && !structHas(own, f.Origin()) {
						written[f.Origin()] = true
					}
				}
				// field writes e's field and, as a.B.C = v changes a.B when
				// a.B is a struct value, each field it is selected from.
				field := func(e ast.Expr) {
					for {
						sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
						if !ok || p.Info.Selections[sel] == nil {
							return
						}
						write(p.Info.Selections[sel].Obj())
						if _, isStruct := p.Info.TypeOf(sel.X).Underlying().(*types.Struct); !isStruct {
							return
						}
						e = sel.X
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							write(p.Info.Uses[id])
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							field(lhs)
						}
					case *ast.IncDecStmt:
						field(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							field(n.X)
						}
					}
					return true
				})
			}
		}
	}
	return written
}

// structHas reports whether f is one of s's own fields.
func structHas(s *types.Struct, f *types.Var) bool {
	for i := 0; s != nil && i < s.NumFields(); i++ {
		if s.Field(i) == f {
			return true
		}
	}
	return false
}

// index records what each of p's declarations names, reaches what runs
// unconditionally (main, init, package-level initialisers) and every
// reference into another package, and lists the methods p's named
// types offer to interfaces.
func (r *reacher) index(p *Package) {
	edges := func(owners []*ast.Ident, root bool, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
				o := origin(p.Info.Uses[id])
				if root || o.Pkg() != p.Types {
					r.reach(o)
				}
				for _, own := range owners {
					r.refs[p.Info.Defs[own]] = append(r.refs[p.Info.Defs[own]], o)
				}
			}
			return true
		})
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				edges([]*ast.Ident{d.Name}, d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main"), d)
				continue
			}
			d := decl.(*ast.GenDecl)
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					edges([]*ast.Ident{s.Name}, false, s)
				case *ast.ValueSpec:
					edges(s.Names, d.Tok == token.VAR && len(s.Values) > 0, s)
				}
			}
		}
	}
	for _, name := range p.Types.Scope().Names() {
		named, ok := p.Types.Scope().Lookup(name).Type().(*types.Named)
		if _, isType := p.Types.Scope().Lookup(name).(*types.TypeName); isType && ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				r.impls[ms.At(i).Obj().Name()] = append(r.impls[ms.At(i).Obj().Name()], ms.At(i))
			}
		}
	}
}

// origin folds a generic instance's method or field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}
