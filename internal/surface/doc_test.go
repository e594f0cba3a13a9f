package surface

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocNames checks that DESIGN.md and README.md name only what exists,
// and that every "DESIGN.md §N" reference names a section. It fails on
//
//   - a backticked Go identifier or selector (`commitBatch`,
//     `wal.Log.Sync`, `d.mu`, `Health().Tier`) that resolves to no
//     declaration in the module (test files and the nested bench/ module
//     included) and to no name of a standard-library package the module
//     imports;
//   - a backticked `.go` file or directory path (`internal/wal`,
//     `crash_test.go`) that does not exist, at the repo root, under
//     internal/, or (a bare file name) anywhere in the repo; an import path
//     of the standard library (`testing/quick`) passes;
//   - a backticked `TestX/row` whose TestX is declared nowhere;
//   - a "DESIGN.md §N" (or "DESIGN.md §N, §M") in any .go comment or in
//     README.md, and any "§N" in DESIGN.md itself, with no "## N." heading.
//
// A selector resolves when its head is a package and the next name is
// declared in it, when its head is a type and the next name is a method or
// field of it (embedded types included), or, for a variable head
// (`d.mu`, `cn.slots`), when every later name is a method or field of some
// type; names after the first resolved step need only be some type's
// method or field.
//
// Skipped, because no Go declaration stands behind them: a token that is
// not identifier-shaped (commands, flags, expressions, formats); a
// lowercase token with an underscore (metric names such as
// `run.ops_per_s`, JSON keys such as `duration_s`, workload and test-row
// names such as `remote_get` and `tiered_none`); an all-capitals token
// (file magics such as `CHAMSNP3`, wire opcodes and status names, math
// symbols); a quoted token (JSON keys and string literals, `"eps"`); a
// manual-page reference (`write(2)`); a name with a file extension
// (`repl.meta`, `shards.meta`); and a path with a placeholder (`<`, `{`,
// `*`). ROADMAP.md is not scanned: it names
// deleted code on purpose when it records what closed. bench/README.md is
// not scanned either: it defines metrics, not code.
func TestDocNames(t *testing.T) {
	problems, err := checkDocs("../..", "DESIGN.md", "README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDocCheckFixture pins what the doc check reports on a fixture with one
// planted fault of each kind: a stale identifier, a missing path and a
// dangling section reference, and nothing for the cited names that exist
// or the tokens it skips.
func TestDocCheckFixture(t *testing.T) {
	problems, err := checkDocs("testdata/docs", "DESIGN.md", "README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DESIGN.md:7: `lib.Gone`: names no declaration in the module or the standard library",
		"DESIGN.md:8: `lib/missing.go`: no such file or directory",
		"lib/lib.go:5: DESIGN.md §2: DESIGN.md has no \"## 2.\" heading",
	}
	if got := strings.Join(problems, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("checkDocs(fixture) =\n%s\nwant\n%s", got, strings.Join(want, "\n"))
	}
}

// docIndex holds every name the docs may cite.
type docIndex struct {
	root     string
	names    map[string]bool            // every declared name, module and std
	members  map[string]bool            // every method and field name
	pkgs     map[string]map[string]bool // package name → its top-level names
	typeMems map[string]map[string]bool // type name → its methods and fields
	embeds   map[string][]string        // type name → embedded type names
	std      map[string]bool            // imported standard-library paths
	files    map[string]bool            // base names of every file in the repo
	comments []docComment               // every comment of every .go file
}

type docComment struct {
	pos  string // file:line, relative to the root
	text string
}

func newDocIndex(root string) (*docIndex, error) {
	x := &docIndex{
		root:     root,
		names:    map[string]bool{},
		members:  map[string]bool{},
		pkgs:     map[string]map[string]bool{},
		typeMems: map[string]map[string]bool{},
		embeds:   map[string][]string{},
		std:      map[string]bool{},
		files:    map[string]bool{},
	}
	fset := token.NewFileSet()
	var mods []string
	imports := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		x.files[name] = true
		if name == "go.mod" {
			m, err := modulePath(filepath.Dir(path))
			if err != nil {
				return err
			}
			mods = append(mods, m)
		}
		if !strings.HasSuffix(name, ".go") || underTestdata(root, path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		x.addFile(f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[p] = true
		}
		for _, cg := range f.Comments {
			p := fset.Position(cg.Pos())
			rel, _ := filepath.Rel(root, p.Filename)
			x.comments = append(x.comments, docComment{
				pos:  filepath.ToSlash(rel) + ":" + strconv.Itoa(p.Line),
				text: strings.Join(strings.Fields(cg.Text()), " "),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range imports {
		if isStd(p, mods) {
			x.std[p] = true
			if err := x.addStd(fset, p); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// underTestdata reports whether path lies in a testdata directory below
// root: fixtures declare names the module does not have.
func underTestdata(root, path string) bool {
	rel, _ := filepath.Rel(root, path)
	for _, part := range strings.Split(filepath.ToSlash(rel), "/") {
		if part == "testdata" {
			return true
		}
	}
	return false
}

// isStd reports whether import path p belongs to no scanned module and so
// to the standard library (which has no dot in its first element).
func isStd(p string, mods []string) bool {
	for _, m := range mods {
		if p == m || strings.HasPrefix(p, m+"/") {
			return false
		}
	}
	first, _, _ := strings.Cut(p, "/")
	return !strings.Contains(first, ".")
}

// addStd adds the exported names of a standard-library package, read from
// its source.
func (x *docIndex) addStd(fset *token.FileSet, path string) error {
	bp, err := build.Default.Import(path, "", 0)
	if err != nil {
		return err
	}
	for _, n := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.FileExports(f)
		x.addFile(f)
	}
	return nil
}

// addFile records a file's package name, top-level declarations, and its
// types' methods, fields and embedded types.
func (x *docIndex) addFile(f *ast.File) {
	pkg := f.Name.Name
	top := x.pkgs[pkg]
	if top == nil {
		top = map[string]bool{}
		x.pkgs[pkg] = top
	}
	x.names[pkg] = true
	add := func(n string) {
		top[n] = true
		x.names[n] = true
	}
	member := func(typ, n string) {
		if x.typeMems[typ] == nil {
			x.typeMems[typ] = map[string]bool{}
		}
		x.typeMems[typ][n] = true
		x.members[n] = true
		x.names[n] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name)
			} else if len(d.Recv.List) == 1 {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n.Name)
					}
				case *ast.TypeSpec:
					add(s.Name.Name)
					x.addMembers(s.Name.Name, s.Type, member)
				}
			}
		}
	}
}

// addMembers records the fields, embedded types and interface methods of
// type typ, whose definition is expr.
func (x *docIndex) addMembers(typ string, expr ast.Expr, member func(typ, n string)) {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, fl := range fields.List {
		if len(fl.Names) == 0 {
			if n := typeName(fl.Type); n != "" {
				member(typ, n)
				x.embeds[typ] = append(x.embeds[typ], n)
			}
			continue
		}
		for _, n := range fl.Names {
			member(typ, n.Name)
		}
	}
}

// typeName is the name of a (receiver or embedded) type expression: T, *T,
// pkg.T, T[P].
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return ""
}

// hasMember reports whether type typ, or a type it embeds, has method or
// field n.
func (x *docIndex) hasMember(typ, n string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if x.typeMems[typ][n] {
		return true
	}
	for _, e := range x.embeds[typ] {
		if x.hasMember(e, n, seen) {
			return true
		}
	}
	return false
}

// resolve reports whether the dotted name comps names a declaration.
func (x *docIndex) resolve(comps []string) bool {
	head := comps[0]
	if len(comps) == 1 {
		return x.names[head] || types.Universe.Lookup(head) != nil || token.Lookup(head).IsKeyword()
	}
	rest := comps[2:]
	switch {
	case x.pkgs[head][comps[1]]:
	case x.typeMems[head] != nil && x.hasMember(head, comps[1], map[string]bool{}):
	case x.pkgs[head] == nil && x.typeMems[head] == nil:
		rest = comps[1:] // a variable: its type is not named
	default:
		return false
	}
	for _, n := range rest {
		if !x.members[n] {
			return false
		}
	}
	return true
}

var (
	backtickRE = regexp.MustCompile("`([^`]+)`")
	fenceRE    = regexp.MustCompile("(?ms)^```.*?^```")
	headingRE  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	docRefRE   = regexp.MustCompile(`DESIGN\.md\s+§\d+(?:,\s*§\d+)*`)
	sectionRE  = regexp.MustCompile(`§(\d+)`)
	identRE    = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$`)
	snakeRE    = regexp.MustCompile(`^[a-z0-9_.]*_[a-z0-9_.]*$`)
	capsRE     = regexp.MustCompile(`^[A-Z][A-Z0-9_]*$`)
	manPageRE  = regexp.MustCompile(`^\w+\(\d\)$`)
	testRowRE  = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)\w*)/\S+$`)
	callRE     = regexp.MustCompile(`\([^()]*\)`)
	genericRE  = regexp.MustCompile(`\[[^\[\]]*\]$`)
	fileExtRE  = regexp.MustCompile(`\.(meta|mft|ckpt|log|seg|json|md|txt|mod|sum|yml|sh|golden)$`)
)

// checkDocs runs the checks of TestDocNames over the files docs under root
// (the first is the design document) and every .go comment there, and
// returns one line per fault.
func checkDocs(root string, docs ...string) ([]string, error) {
	x, err := newDocIndex(root)
	if err != nil {
		return nil, err
	}
	sections := map[string]bool{}
	var problems []string
	checkRefs := func(pos, text string, all bool) {
		refs := docRefRE.FindAllString(text, -1)
		if all {
			refs = []string{text}
		}
		for _, ref := range refs {
			for _, m := range sectionRE.FindAllStringSubmatch(ref, -1) {
				if !sections[m[1]] {
					problems = append(problems, pos+": "+docs[0]+" §"+m[1]+": "+docs[0]+" has no \"## "+m[1]+".\" heading")
				}
			}
		}
	}
	for i, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			for _, m := range headingRE.FindAllStringSubmatch(string(data), -1) {
				sections[m[1]] = true
			}
		}
		// Blank out fenced blocks, keeping their newlines for line numbers.
		text := fenceRE.ReplaceAllStringFunc(string(data), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for n, line := range strings.Split(text, "\n") {
			checkRefs(doc+":"+strconv.Itoa(n+1), line, i == 0)
		}
		for _, m := range backtickRE.FindAllStringSubmatchIndex(text, -1) {
			tok := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			line := 1 + strings.Count(text[:m[0]], "\n")
			if why := x.checkToken(tok); why != "" {
				problems = append(problems, doc+":"+strconv.Itoa(line)+": `"+tok+"`: "+why)
			}
		}
	}
	for _, c := range x.comments {
		checkRefs(c.pos, c.text, false)
	}
	sort.SliceStable(problems, func(i, j int) bool { return problems[i] < problems[j] })
	return problems, nil
}

// checkToken returns why a backticked token names nothing, or "" if it
// resolves or is skipped.
func (x *docIndex) checkToken(tok string) string {
	if strings.HasPrefix(tok, `"`) || strings.ContainsAny(tok, "<{* '") || manPageRE.MatchString(tok) {
		return ""
	}
	if m := testRowRE.FindStringSubmatch(tok); m != nil {
		if !x.names[m[1]] {
			return "names no declared test"
		}
		return ""
	}
	if strings.Contains(tok, "/") || strings.HasSuffix(tok, ".go") {
		return x.checkPath(tok)
	}
	tok = strings.TrimLeft(tok, "&[]")
	tok = genericRE.ReplaceAllString(callRE.ReplaceAllString(tok, ""), "")
	switch {
	case !identRE.MatchString(tok), fileExtRE.MatchString(tok), snakeRE.MatchString(tok), capsRE.MatchString(tok):
		return ""
	case !x.resolve(strings.Split(tok, ".")):
		return "names no declaration in the module or the standard library"
	}
	return ""
}

func (x *docIndex) checkPath(p string) string {
	p = strings.TrimSuffix(p, "/")
	if x.std[p] {
		return ""
	}
	for _, dir := range []string{"", "internal"} {
		if _, err := os.Stat(filepath.Join(x.root, dir, filepath.FromSlash(p))); err == nil {
			return ""
		}
	}
	if !strings.Contains(p, "/") && x.files[p] {
		return ""
	}
	return "no such file or directory"
}
