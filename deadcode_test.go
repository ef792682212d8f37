package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The dead-code fence (DESIGN "A fence for code nobody calls"). It
// type-checks every non-test package of the root module and of the bench
// module with go/types, once per build-tag set, and lists each
// declaration of the root module that no non-test code references —
// functions, methods, types, constants, package-level variables, struct
// fields and interface methods — each referenced field that no non-test
// code writes, and each written field that no non-test code reads (every
// use is a ++, -- or op-assign target: a counter nobody looks at). A name
// is reported only if it is dead under every tag set it is declared in. Every finding must carry a reason in the
// allow list, and every allow-list line must still match a finding.

const deadAllowFile = "testdata/deadcode.allow"

// fenceTags are the build-tag sets the repository builds under: the
// default, the race detector's poison hooks and the wide vertex sets.
var fenceTags = [][]string{nil, {"race"}, {"graph4096"}}

func TestDeadCodeFence(t *testing.T) {
	mods := []fenceModule{
		{dir: ".", path: "repro", report: true},
		{dir: "bench", path: "repro/bench"},
	}
	findings, err := findDead(mods, fenceTags)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowList(deadAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fenceProblems(findings, allow) {
		t.Error(p)
	}
}

// TestDeadCodeFenceSelfTest runs the checker on testdata/deadfix, which
// holds one dead function, one dead field and one counter nothing reads
// beside a generic method reached only through an instantiation, a method
// reached only through an interface, a json-tagged field nothing else
// touches and a counter that is read.
func TestDeadCodeFenceSelfTest(t *testing.T) {
	mods := []fenceModule{{dir: "testdata/deadfix", path: "deadfix", report: true}}
	findings, err := findDead(mods, [][]string{nil})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.key())
	}
	want := []string{"unread deadfix.Ledger.bumps", "unused deadfix.Ledger.memo", "unused deadfix.orphan"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}

	allow := map[string]string{"unused deadfix.orphan": "kept for the self-test", "unread deadfix.Ledger.bumps": "kept for the self-test"}
	if p := fenceProblems(findings, allow); len(p) != 1 || !strings.Contains(p[0], "deadfix.Ledger.memo") {
		t.Errorf("an unlisted finding: problems = %q, want one naming Ledger.memo", p)
	}
	allow["unused deadfix.Ledger.memo"] = "kept for the self-test"
	if p := fenceProblems(findings, allow); len(p) != 0 {
		t.Errorf("every finding listed: problems = %q, want none", p)
	}
	allow["unused deadfix.gone"] = "deleted long ago"
	if p := fenceProblems(findings, allow); len(p) != 1 || !strings.Contains(p[0], "stale") {
		t.Errorf("a stale line: problems = %q, want one stale line", p)
	}
}

// fenceProblems compares the findings with the allow list: a finding
// with no line is one problem, a line with no finding another.
func fenceProblems(findings []deadFinding, allow map[string]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.key()] = true
		if _, ok := allow[f.key()]; !ok {
			verb := map[string]string{"unused": "references", "unwritten": "writes", "unread": "reads"}[f.kind]
			out = append(out, fmt.Sprintf("%s: %s: no non-test code %s it; delete it or add a line with a reason to %s",
				f.pos, f.name, verb, deadAllowFile))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(allow)) {
		if !seen[k] {
			out = append(out, fmt.Sprintf("%s: stale line %q matches no finding; delete it", deadAllowFile, k))
		}
	}
	return out
}

// readAllowList reads "kind name reason..." lines; blank lines and lines
// starting with '#' are skipped, and a line without a reason is an error.
func readAllowList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[0] != "unused" && fields[0] != "unwritten" && fields[0] != "unread") {
			return nil, fmt.Errorf("%s:%d: want \"unused|unwritten|unread NAME REASON\", got %q", path, n, line)
		}
		key := fields[0] + " " + fields[1]
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %q listed twice", path, n, key)
		}
		allow[key] = strings.Join(fields[2:], " ")
	}
	return allow, sc.Err()
}

// fenceModule is one module the checker loads: every package under dir
// (testdata, hidden directories and nested modules excluded) is imported
// as path plus its directory. References from every module count as
// uses; findings are reported for the modules marked report.
type fenceModule struct {
	dir, path string
	report    bool
}

type deadFinding struct {
	kind string // "unused", "unwritten" or "unread"
	name string // import path, then type, field or method names
	pos  token.Position
}

func (f deadFinding) key() string { return f.kind + " " + f.name }

// findDead checks the modules once per tag set and returns the findings
// that hold under every tag set their declaration exists in, sorted.
func findDead(mods []fenceModule, tagSets [][]string) ([]deadFinding, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	declared := map[string]int{}
	dead := map[string]int{}
	first := map[string]deadFinding{}
	for _, tags := range tagSets {
		l := &fenceLoader{fset: fset, std: std, mods: mods, pkgs: map[string]*fencePkg{}}
		l.ctxt = build.Default
		l.ctxt.BuildTags = tags
		if err := l.loadAll(); err != nil {
			return nil, err
		}
		decls, found := l.analyse()
		for _, d := range decls {
			declared[d]++
		}
		for _, f := range found {
			if dead[f.key()]++; dead[f.key()] == 1 {
				first[f.key()] = f
			}
		}
	}
	var out []deadFinding
	for k, n := range dead {
		f := first[k]
		if n == declared[f.name] {
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b deadFinding) int { return strings.Compare(a.key(), b.key()) })
	return out, nil
}

type fenceLoader struct {
	fset *token.FileSet
	std  types.Importer
	ctxt build.Context
	mods []fenceModule
	pkgs map[string]*fencePkg
	// order holds the module packages in the order they finished checking.
	order []*fencePkg
}

type fencePkg struct {
	mod   *fenceModule
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *fenceLoader) loadAll() error {
	for i := range l.mods {
		m := &l.mods[i]
		err := filepath.WalkDir(m.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != m.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != m.dir {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if bp, err := l.ctxt.ImportDir(p, 0); err != nil || len(bp.GoFiles) == 0 {
				return nil
			}
			rel, _ := filepath.Rel(m.dir, p)
			_, err = l.Import(path.Join(m.path, filepath.ToSlash(rel)))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Import type-checks a module package from its non-test files and hands
// everything else to the standard library's source importer.
func (l *fenceLoader) Import(ipath string) (*types.Package, error) {
	if p, ok := l.pkgs[ipath]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
		return p.types, nil
	}
	var mod *fenceModule
	for i := range l.mods {
		m := &l.mods[i]
		if (ipath == m.path || strings.HasPrefix(ipath, m.path+"/")) && (mod == nil || len(m.path) > len(mod.path)) {
			mod = m
		}
	}
	if mod == nil {
		return l.std.Import(ipath)
	}
	l.pkgs[ipath] = nil
	dir := filepath.Join(mod.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ipath, mod.path), "/")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &fencePkg{mod: mod, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(ipath, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[ipath] = p
	l.order = append(l.order, p)
	return p.types, nil
}

// fenceDecl is one declaration the checker may report, with the source
// range whose references to it do not count (its own body).
type fenceDecl struct {
	obj        types.Object
	name       string
	start, end token.Pos
	jsonTagged bool // a field encoding/json reads and writes by reflection
}

func (l *fenceLoader) analyse() (declared []string, found []deadFinding) {
	decls, recvIdents := l.declarations()
	used, written, read := l.references(decls, recvIdents)
	for _, d := range decls {
		declared = append(declared, d.name)
		if d.jsonTagged {
			continue
		}
		pos := l.fset.Position(d.obj.Pos())
		v, isVar := d.obj.(*types.Var)
		r, identUse := read[d.obj]
		switch {
		case !used[d.obj]:
			found = append(found, deadFinding{kind: "unused", name: d.name, pos: pos})
		case isVar && v.IsField() && !written[d.obj]:
			found = append(found, deadFinding{kind: "unwritten", name: d.name, pos: pos})
		case isVar && v.IsField() && identUse && !r:
			found = append(found, deadFinding{kind: "unread", name: d.name, pos: pos})
		}
	}
	return declared, found
}

// declarations lists what the reported modules declare at package level:
// functions but init and main, methods, types with their fields and
// interface methods, constants and variables. It also returns the type
// names in method receivers, which are no use of the type.
func (l *fenceLoader) declarations() ([]fenceDecl, map[*ast.Ident]bool) {
	var decls []fenceDecl
	recvIdents := map[*ast.Ident]bool{}
	for _, p := range l.order {
		if !p.mod.report {
			continue
		}
		add := func(id *ast.Ident, name string, n ast.Node) {
			obj := p.info.Defs[id]
			if id.Name == "_" || obj == nil {
				return
			}
			d := fenceDecl{obj: obj, name: p.types.Path() + "." + name, start: n.Pos(), end: n.End()}
			if fld, ok := n.(*ast.Field); ok && fld.Tag != nil {
				v, ok := reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Lookup("json")
				d.jsonTagged = ok && v != "-"
			}
			decls = append(decls, d)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						recv := recvBase(d.Recv.List[0].Type)
						recvIdents[recv] = true
						add(d.Name, recv.Name+"."+d.Name.Name, d)
					case d.Name.Name != "init" && (d.Name.Name != "main" || p.types.Name() != "main"):
						add(d.Name, d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
							walkTypeFields(s.Type, s.Name.Name, add)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}
	return decls, recvIdents
}

// references marks what the non-test code of every loaded module uses,
// which fields it writes and which it reads. A use is an identifier
// resolving to the object — outside the object's own declaration and
// other than a method receiver's type — or an embedded field a selector
// passes through, or a method some interface of a loaded package asks of
// its type. read holds, for each object an identifier uses, whether some
// use reads it: any use but as the target of ++, -- or an op-assign,
// which only bump what is already there, or an embedded field a selector
// passes through.
func (l *fenceLoader) references(decls []fenceDecl, recvIdents map[*ast.Ident]bool) (used, written, read map[types.Object]bool) {
	own := map[types.Object]fenceDecl{}
	for _, d := range decls {
		own[d.obj] = d
	}
	used = map[types.Object]bool{}
	written = map[types.Object]bool{}
	read = map[types.Object]bool{}
	for _, p := range l.order {
		bumps := map[*ast.Ident]bool{}
		for _, f := range p.files {
			markWrites(f, p.info, written)
			markBumps(f, bumps)
		}
		for id, obj := range p.info.Uses {
			if obj.Pkg() == nil || recvIdents[id] {
				continue
			}
			o := originOf(obj)
			if d, ok := own[o]; ok && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			used[o] = true
			read[o] = read[o] || !bumps[id]
		}
		for _, sel := range p.info.Selections {
			markEmbedded(sel.Recv(), sel.Index(), used)
			markEmbedded(sel.Recv(), sel.Index(), read)
		}
	}
	l.markInterfaceMethods(used)
	return used, written, read
}

// markBumps marks the field identifiers the file only bumps: the selected
// field of a ++, -- or op-assign target.
func markBumps(f *ast.File, bumps map[*ast.Ident]bool) {
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			bumps[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					mark(e)
				}
			}
		}
		return true
	})
}

// markInterfaceMethods marks, for every named type of the modules and
// every instantiation they spell, the methods of each interface it
// satisfies. Every interface declared in a loaded package counts, the
// standard library's included (fmt.Stringer, sort.Interface, io.Writer):
// a value may reach it through any of them.
func (l *fenceLoader) markInterfaceMethods(used map[types.Object]bool) {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	var named []*types.Named
	seenNamed := map[*types.Named]bool{}
	addNamed := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() == n.TypeArgs().Len() && !seenNamed[n] {
			seenNamed[n] = true
			named = append(named, n)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.order {
		visit(p.types)
		for _, tv := range p.info.Types {
			addIface(tv.Type)
			addNamed(tv.Type)
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				addNamed(tn.Type())
			}
		}
	}
	for _, t := range named {
		var ptr types.Type
		if !types.IsInterface(t) {
			ptr = types.NewPointer(t)
		}
		for _, it := range ifaces {
			var impl types.Type
			switch {
			case t.Underlying() == it:
				continue
			case types.Implements(t, it):
				impl = t
			case ptr != nil && types.Implements(ptr, it):
				impl = ptr
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, index, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name()); obj != nil {
					used[originOf(obj)] = true
					markEmbedded(impl, index, used)
				}
			}
		}
	}
}

// markEmbedded marks the embedded fields a selection with this index path
// passes through on its way from recv to the field or method it selects.
func markEmbedded(recv types.Type, index []int, set map[types.Object]bool) {
	for _, i := range index[:len(index)-1] {
		st, ok := derefUnder(recv).(*types.Struct)
		if !ok {
			return
		}
		fld := st.Field(i)
		set[originOf(fld)] = true
		recv = fld.Type()
	}
}

// markWrites marks every field the file writes: a key or position in a
// struct literal, an assignment, increment or range target, an operand of
// &, a value receiver of a pointer method, or an array sliced in place —
// and each struct or array field that contains such a target.
func markWrites(f *ast.File, info *types.Info, written map[types.Object]bool) {
	lhs := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				written[originOf(sel.Obj())] = true
				markEmbedded(sel.Recv(), sel.Index(), written)
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return
			}
			// Writing into a struct or array value writes the field
			// holding it; writing through a pointer, slice or map does not.
			t := info.Types[e].Type
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Struct, *types.Array:
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := derefUnder(info.Types[n].Type).(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					written[originOf(st.Field(i))] = true
				}
				break
			}
			for _, e := range n.Elts {
				if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok && info.Uses[id] != nil {
					written[originOf(info.Uses[id])] = true
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lhs(n.Key)
				if n.Value != nil {
					lhs(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lhs(n.X)
			}
		case *ast.SliceExpr:
			if _, ok := info.Types[n.X].Type.Underlying().(*types.Array); ok {
				lhs(n.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			if _, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptrRecv {
				markEmbedded(sel.Recv(), sel.Index(), written)
				if _, isPtr := sel.Recv().(*types.Pointer); !isPtr {
					lhs(n.X)
				}
			}
		}
		return true
	})
}

// walkTypeFields calls fn for every struct field and interface method
// declared in a type expression, nested struct types included.
func walkTypeFields(e ast.Expr, prefix string, fn func(*ast.Ident, string, ast.Node)) {
	switch t := e.(type) {
	case *ast.StructType:
		for _, fld := range t.Fields.List {
			names := fld.Names
			if len(names) == 0 {
				names = []*ast.Ident{embeddedIdent(fld.Type)}
			}
			for _, id := range names {
				if id != nil {
					fn(id, prefix+"."+id.Name, fld)
					walkTypeFields(fld.Type, prefix+"."+id.Name, fn)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, id := range m.Names {
				fn(id, prefix+"."+id.Name, m)
			}
		}
	case *ast.StarExpr:
		walkTypeFields(t.X, prefix, fn)
	case *ast.ArrayType:
		walkTypeFields(t.Elt, prefix, fn)
	case *ast.MapType:
		walkTypeFields(t.Value, prefix, fn)
	}
}

func embeddedIdent(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedIdent(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	case *ast.IndexExpr:
		return embeddedIdent(t.X)
	case *ast.IndexListExpr:
		return embeddedIdent(t.X)
	}
	return nil
}

// recvBase is the type name in a method's receiver: T, *T, T[P] or *T[P].
func recvBase(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvBase(t.X)
	case *ast.IndexExpr:
		return recvBase(t.X)
	case *ast.IndexListExpr:
		return recvBase(t.X)
	case *ast.ParenExpr:
		return recvBase(t.X)
	}
	return e.(*ast.Ident)
}

func derefUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}

// originOf maps a field or method of an instantiated generic type back to
// the declaration it was instantiated from.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}
