package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis. Only non-test
// files are loaded: _test.go is exempt from every check by design
// (tests may use wall clocks, global rand for quick.Config, etc.), and
// skipping them keeps external `_test` packages out of the loader.
type Package struct {
	// Path is the import path ("stellaris/internal/cache").
	Path string
	// Dir is the absolute package directory.
	Dir string
	// Fset is shared by every package the Loader produced.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by name.
	Files []*ast.File
	// Types and Info carry the go/types results. Info is fully
	// populated (Uses, Defs, Selections, Types) even when the package
	// had type errors.
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks every package of one module from source. Module
// packages are resolved by path mapping under the module root; standard
// library imports go through go/importer's "source" importer (the only
// stdlib importer that works without pre-built export data).
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer

	pkgs    map[string]*Package // by import path, load memo
	loading map[string]bool     // cycle guard
	errs    []error             // type errors accumulated across loads
}

// NewLoader returns a loader rooted at the module containing dir (the
// nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer compiles stdlib dependencies from $GOROOT/src.
	// Disable cgo so packages like net select their pure-Go variants
	// instead of requiring the cgo preprocessor.
	build.Default.CgoEnabled = false
	return &Loader{
		fset:    fset,
		modRoot: root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Errors returns the type errors accumulated by every load so far.
// Type errors do not abort analysis (go/types recovers well enough for
// the checks to run), but the driver reports them so a broken tree
// cannot silently pass the gate.
func (l *Loader) Errors() []error { return l.errs }

// LoadAll loads every package under the module root, skipping testdata,
// vendor, and hidden directories.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// LoadDir loads and type-checks the package in dir (which must be under
// the module root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// load type-checks the module package with the given import path,
// memoized.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.modRoot
	if path != l.modPath {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		// One platform's files, as the compiler picks them (build
		// constraints and _GOARCH suffixes): twins such as
		// internal/tensor's kernel_amd64.go / kernel_noasm.go declare
		// the same names.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", e.Name(), err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := &types.Config{
		Importer: importerFunc(l.importPkg),
		Error: func(err error) {
			l.errs = append(l.errs, err)
		},
	}
	tpkg, _ := cfg.Check(path, l.fset, files, info) // errors already collected
	p := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves one import: module-internal paths recurse into the
// loader, everything else goes to the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
