// Package surface holds two checks. This file's: every exported name of the
// module has a non-test caller, and every exported *Options or *Config
// field has a non-test setter outside its own package, unless allowlist.txt
// names it with a reason. doc_test.go's: every name, path and section DESIGN.md and
// README.md cite exists (TestDocNames).
//
// A caller is any non-test file of the module, of its examples and
// commands, or of the nested benchmark module under bench/. Two kinds of
// entry are reported:
//
//   - an exported function, method, type, variable or constant that no
//     non-test file references; a method's receiver naming its own type is
//     not a reference. A method is not reported when its type
//     satisfies a used interface that has the method: an interface the
//     module names or an interface literal; or, if non-test code converts
//     a value of the type (or of a struct embedding it) to some interface
//     type, error, the interfaces through which package errors calls
//     Unwrap, Is and As, or any exported interface of a standard-library
//     package the module imports. The standard library reaches a method
//     such as String or WriteTo only through a value the module has put in
//     an interface, so a type never converted keeps no method alive that
//     way.
//   - an exported, non-embedded field of a struct type whose name ends in
//     Options or Config that no non-test file outside the declaring package
//     sets, by a composite-literal key, an assignment, an increment or
//     taking its address; setting x.F.G sets F too. The declaring package
//     filling in its own defaults does not count.
//
// The scan uses only go/parser and go/types; standard-library imports are
// type-checked from source.
package surface

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// pkg is one package of a scanned module: its non-test files only.
type pkg struct {
	path   string
	files  []*ast.File
	caller bool // names in it are callers, never candidates
	types  *types.Package
	info   *types.Info
}

// scanner type-checks the packages of a module and of its caller modules
// against one another, so that an object has one identity everywhere.
type scanner struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

// scan reports the dead surface of the module rooted at root, counting the
// non-test files of the modules rooted at callers (nested under root or
// not) as callers too. It returns the entries, each mapped to what it
// lacks, and the number of exported *Options and *Config fields.
func scan(root string, callers ...string) (entries map[string]string, optionFields int, err error) {
	s := &scanner{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	// The source importer reads build.Default. Without cgo it type-checks
	// the pure-Go files of net and os/user instead of running the C
	// toolchain over their cgo files.
	build.Default.CgoEnabled = false
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	if err := s.load(root, false); err != nil {
		return nil, 0, err
	}
	for _, c := range callers {
		if err := s.load(c, true); err != nil {
			return nil, 0, err
		}
	}
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.check(p); err != nil {
			return nil, 0, err
		}
	}
	entries, optionFields = s.report(paths)
	return entries, optionFields, nil
}

// load adds every package of the module rooted at dir, skipping testdata,
// hidden directories and nested modules.
func (s *scanner) load(dir string, caller bool) error {
	mod, err := modulePath(dir)
	if err != nil {
		return err
	}
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		p := &pkg{path: mod, caller: caller}
		if rel, _ := filepath.Rel(dir, path); rel != "." {
			p.path = mod + "/" + filepath.ToSlash(rel)
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, n); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			s.pkgs[p.path] = p
		}
		return nil
	})
}

func modulePath(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

func (s *scanner) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

// ImportFrom resolves the scanned modules' own packages to the ones this
// scanner checks, and everything else to the standard library.
func (s *scanner) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := s.pkgs[path]; ok {
		return s.check(path)
	}
	return s.std.ImportFrom(path, dir, mode)
}

func (s *scanner) check(path string) (*types.Package, error) {
	p := s.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	tp, err := conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}

// origin maps an object of an instantiated generic to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (s *scanner) report(paths []string) (map[string]string, int) {
	used := map[types.Object]bool{}
	set := map[*types.Var]bool{} // option fields set from outside their package
	// Interfaces in use. own: the module's interface literals and the named
	// interfaces something references. std: error, package errors'
	// interfaces, and every exported interface of an imported non-module
	// package; the standard library calls String, Error, Read and the like
	// through them, but only on a value the module put in an interface.
	var own, std []*types.Interface
	for _, path := range paths {
		p := s.pkgs[path]
		// A method's receiver names its own type; that is not a caller.
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, o := range p.info.Uses {
			if !recv[id] {
				used[origin(o)] = true
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				own = append(own, it)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					targets = append(targets, n.Key)
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = append(targets, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						targets = append(targets, n.X)
					}
				}
				for _, t := range targets {
					// Setting x.F.G sets F too: take every selector of the
					// chain, or the bare key of a composite literal.
					var ids []*ast.Ident
					for sel, ok := t.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
						ids = append(ids, sel.Sel)
					}
					if id, ok := t.(*ast.Ident); ok {
						ids = append(ids, id)
					}
					for _, id := range ids {
						if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
							set[origin(v).(*types.Var)] = true
						}
					}
				}
				return true
			})
		}
	}
	std = append(std, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std = append(std, s.errorsInterfaces()...)
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		_, mine := s.pkgs[tp.Path()]
		for _, n := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || (mine && !used[tn]) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && mine {
				own = append(own, it)
			} else if ok {
				std = append(std, it)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, path := range paths {
		walk(s.pkgs[path].types)
	}
	converted := s.conversions(paths)
	viaInterface := func(t *types.Named, m *types.Func) bool {
		reaches := func(ifaces []*types.Interface) bool {
			for _, it := range ifaces {
				if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if it.Method(i).Name() == m.Name() {
						return true
					}
				}
			}
			return false
		}
		return reaches(own) || converted[t] && reaches(std)
	}

	const (
		uncalled = "exported, and no non-test file references it"
		unset    = "an *Options or *Config field that no non-test file outside its package sets"
	)
	entries := map[string]string{}
	options := 0
	for _, path := range paths {
		p := s.pkgs[path]
		if p.caller || p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			if o.Exported() && !used[o] {
				entries[path+"."+n] = uncalled
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && (named.TypeParams().Len() > 0 || !viaInterface(named, m)) {
					entries[path+"."+n+"."+m.Name()] = uncalled
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !strings.HasSuffix(n, "Options") && !strings.HasSuffix(n, "Config") {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				options++
				if !set[f] {
					entries[path+"."+n+"."+f.Name()] = unset
				}
			}
		}
	}
	return entries, options
}

// conversions returns the named types a value of which (or of a pointer to
// which) non-test code converts to an interface type: explicitly, or
// implicitly as a call argument, an assigned or declared value, a result,
// a composite-literal element or a channel send. A struct type carries the
// types it embeds along, since their methods are promoted to it.
func (s *scanner) conversions(paths []string) map[*types.Named]bool {
	conv := map[*types.Named]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || types.IsInterface(n) || conv[n.Origin()] {
			return
		}
		conv[n.Origin()] = true
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Embedded() {
					mark(st.Field(i).Type())
				}
			}
		}
	}
	to := func(target, t types.Type) {
		if target != nil && t != nil && types.IsInterface(target) && !types.IsInterface(t) {
			mark(t)
		}
	}
	for _, path := range paths {
		p := s.pkgs[path]
		// assign converts exprs to targets, spreading one multi-valued
		// expression over several targets.
		assign := func(targets []types.Type, exprs []ast.Expr) {
			if tup, ok := p.info.TypeOf(exprs[0]).(*types.Tuple); ok && len(exprs) == 1 {
				for i := 0; i < tup.Len() && i < len(targets); i++ {
					to(targets[i], tup.At(i).Type())
				}
				return
			}
			for i, e := range exprs {
				if i < len(targets) {
					to(targets[i], p.info.TypeOf(e))
				}
			}
		}
		tuple := func(t *types.Tuple) []types.Type {
			out := make([]types.Type, t.Len())
			for i := range out {
				out[i] = t.At(i).Type()
			}
			return out
		}
		for _, f := range p.files {
			var funcs []*types.Signature // enclosing functions, innermost last
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					switch stack[len(stack)-1].(type) {
					case *ast.FuncDecl, *ast.FuncLit:
						funcs = funcs[:len(funcs)-1]
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.FuncDecl:
					funcs = append(funcs, p.info.Defs[n.Name].Type().(*types.Signature))
				case *ast.FuncLit:
					funcs = append(funcs, p.info.TypeOf(n).(*types.Signature))
				case *ast.ReturnStmt:
					if len(n.Results) > 0 {
						assign(tuple(funcs[len(funcs)-1].Results()), n.Results)
					}
				case *ast.CallExpr:
					tv := p.info.Types[n.Fun]
					if tv.IsType() {
						if len(n.Args) == 1 {
							to(tv.Type, p.info.TypeOf(n.Args[0]))
						}
						break
					}
					sig, ok := tv.Type.(*types.Signature)
					if !ok || len(n.Args) == 0 {
						break
					}
					targets := tuple(sig.Params())
					if sig.Variadic() && !n.Ellipsis.IsValid() {
						if sl, ok := targets[len(targets)-1].Underlying().(*types.Slice); ok {
							targets = targets[:len(targets)-1]
							for len(targets) < len(n.Args) {
								targets = append(targets, sl.Elem())
							}
						}
					}
					assign(targets, n.Args)
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						targets := make([]types.Type, len(n.Lhs))
						for i, l := range n.Lhs {
							targets[i] = p.info.TypeOf(l)
						}
						assign(targets, n.Rhs)
					}
				case *ast.ValueSpec:
					if n.Type != nil && len(n.Values) > 0 {
						targets := make([]types.Type, len(n.Names))
						for i := range targets {
							targets[i] = p.info.TypeOf(n.Type)
						}
						assign(targets, n.Values)
					}
				case *ast.SendStmt:
					if ch, ok := p.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						to(ch.Elem(), p.info.TypeOf(n.Value))
					}
				case *ast.CompositeLit:
					t := p.info.TypeOf(n)
					if t == nil {
						break
					}
					for i, elt := range n.Elts {
						key, val := ast.Expr(nil), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key, val = kv.Key, kv.Value
						}
						switch u := t.Underlying().(type) {
						case *types.Struct:
							if id, ok := key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok {
									to(v.Type(), p.info.TypeOf(val))
								}
							} else if key == nil && i < u.NumFields() {
								to(u.Field(i).Type(), p.info.TypeOf(val))
							}
						case *types.Slice:
							to(u.Elem(), p.info.TypeOf(val))
						case *types.Array:
							to(u.Elem(), p.info.TypeOf(val))
						case *types.Map:
							if key != nil {
								to(u.Key(), p.info.TypeOf(key))
							}
							to(u.Elem(), p.info.TypeOf(val))
						}
					}
				}
				return true
			})
		}
	}
	return conv
}

// errorsSrc declares the unnamed interfaces through which package errors
// calls Unwrap, Is and As.
const errorsSrc = `package errors
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

func (s *scanner) errorsInterfaces() []*types.Interface {
	f, err := parser.ParseFile(s.fset, "errors.go", errorsSrc, 0)
	if err != nil {
		panic(err)
	}
	tp, err := new(types.Config).Check("errors", s.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []*types.Interface
	for _, n := range tp.Scope().Names() {
		out = append(out, tp.Scope().Lookup(n).Type().Underlying().(*types.Interface))
	}
	return out
}

// reasonRE is the closed set of reasons an allowlist line may give; a
// test-need reason also names the test (testNameRE).
var (
	reasonRE   = regexp.MustCompile(`^(hook|test-support|user-api|test-need|roadmap-4d): \S`)
	testNameRE = regexp.MustCompile(`\bTest\w+`)
)

// readAllowlist parses lines of the form "<entry> <reason>"; blank lines
// and lines starting with # are comments.
func readAllowlist(t *testing.T, name string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case !reasonRE.MatchString(reason):
			t.Errorf("%s:%d: %s: reason %q is not one of hook:, test-support:, user-api:, test-need:, roadmap-4d:", name, i+1, entry, reason)
		case strings.HasPrefix(reason, "test-need:") && !testNameRE.MatchString(reason):
			t.Errorf("%s:%d: %s: a test-need reason names the test", name, i+1, entry)
		case allow[entry] != "":
			t.Errorf("%s:%d: %s listed twice", name, i+1, entry)
		}
		allow[entry] = reason
	}
	return allow
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestNoDeadSurface(t *testing.T) {
	entries, options, err := scan("../..", "../../bench")
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t, "allowlist.txt")
	for _, e := range sortedKeys(entries) {
		if allow[e] == "" {
			t.Errorf("%s: %s; delete it, make it a constant, unexport it, or add it to allowlist.txt with a reason", e, entries[e])
		}
	}
	for _, e := range sortedKeys(allow) {
		if entries[e] == "" {
			t.Errorf("%s: in allowlist.txt but no longer found; delete its line", e)
		}
	}
	t.Logf("%d entries; %d exported *Options and *Config fields", len(entries), options)
}

// TestScannerFixture pins what the scan reports on a fixture module with
// one case of each kind: exactly the uncalled method, the *Options and
// *Config fields only a test or the package's own defaults set, the method that satisfies a standard-library interface
// (io.WriterTo) on a type no non-test code converts to an interface, and
// the type only its own method's receiver names (with that method); not
// the method reached through a module interface, the String method of a
// type fmt receives as an interface, the fields the caller module sets
// (Options.Grow only through Grow.Factor), or the names only the caller
// module uses.
func TestScannerFixture(t *testing.T) {
	entries, _, err := scan("testdata/fixture", "testdata/fixture/bench")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(sortedKeys(entries), " ")
	if want := "fixture/lib.Blob.WriteTo fixture/lib.GrowConfig.Step fixture/lib.Options.TestOnly fixture/lib.Orphan fixture/lib.Orphan.Reset fixture/lib.Store.Uncalled"; got != want {
		t.Fatalf("scan(fixture) = %q, want %q", got, want)
	}
}
