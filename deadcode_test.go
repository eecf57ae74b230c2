package fingers_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// interfaceMethods are method names that callers reach through a
// standard-library interface (error, fmt.Stringer, sort.Interface,
// heap.Interface, json.Marshaler, http.Handler), so no source file names
// them at a call site.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// testOnlyExports are the exported declarations under internal/ that
// only test files use and that stay exported on purpose: tests in other
// packages use them, so they cannot move into one package's _test.go.
var testOnlyExports = map[string]string{
	"plan.MustCompile":         "panicking Compile for fixed patterns in the tests of seven packages",
	"telemetry.NewRunLog":      "builds run logs in the tests of three packages",
	"telemetry.Counting":       "the cheapest real tracer, in the tests and benchmarks of two packages",
	"setops.Workload.LongLen":  "the fingers chargeOp reference test reads it",
	"setops.Workload.ShortLen": "the fingers chargeOp reference test reads it",
	"stats.Histogram.Buckets":  "the profile tests read the histogram's buckets",
	"trend.ParseSummary":       "the fingerstat golden tests parse the trend JSON back",
}

// writeOnlyFields are the struct fields that non-test code writes and
// only tests read, kept on purpose. A pkg.Type key covers every field of
// the type.
var writeOnlyFields = map[string]string{
	"mine.KernelStats":           "the kernel-engagement tests can see the Counter's dispatch only through these counters",
	"setops.Pairing.SearchSteps": "part of the reference model TestChargeOpMatchesBalance compares chargeOp against",
	"simerr.SimError.Stack":      "a panic's stack, captured for failure diagnostics that do not read it yet",
}

// goPackage is one package as `go list` reports it.
type goPackage struct {
	path, dir, export string
	standard          bool
	files             []string
}

// listPackages runs `go list -deps -export` in dir and returns every
// package the module's packages build from, by import path.
func listPackages(t *testing.T, dir string, into map[string]goPackage) {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-f", "{{.ImportPath}}|{{.Dir}}|{{.Export}}|{{.Standard}}|{{join .GoFiles \",\"}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "|")
		p := goPackage{path: f[0], dir: f[1], export: f[2], standard: f[3] == "true"}
		if f[4] != "" {
			p.files = strings.Split(f[4], ",")
		}
		into[p.path] = p
	}
}

// moduleChecker type-checks the module's packages from source, in
// dependency order, and imports standard-library packages from the
// export data `go list` built.
type moduleChecker struct {
	fset  *token.FileSet
	pkgs  map[string]goPackage
	std   types.Importer
	done  map[string]*types.Package
	files map[string][]*ast.File
	info  map[string]*types.Info
}

func newModuleChecker(pkgs map[string]goPackage) *moduleChecker {
	m := &moduleChecker{
		fset:  token.NewFileSet(),
		pkgs:  pkgs,
		done:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  map[string]*types.Info{},
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := pkgs[path]
		if !ok || p.export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.export)
	})
	return m
}

// newInfo returns the type-checker records the checks read.
func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	p, ok := m.pkgs[path]
	if !ok || p.standard || path == "unsafe" {
		return m.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.files {
		f, err := parser.ParseFile(m.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.done[path], m.files[path], m.info[path] = pkg, files, info
	return pkg, nil
}

// pkgKey names a package in declaration keys: its import path, with
// internal/ packages shortened to the path below internal/.
func pkgKey(p *types.Package) string {
	return strings.TrimPrefix(p.Path(), "fingers/internal/")
}

// checked reports whether the declarations of the module package at
// path are checked: the main module's are, bench/'s are not (bench/
// only uses).
func checked(path string) bool {
	return !strings.HasPrefix(path+"/", "fingers/bench/")
}

// declKey names a package-level object or method as pkg.Name or
// pkg.Recv.Name; "" for anything else.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return pkgKey(obj.Pkg()) + "." + n.Origin().Obj().Name() + "." + obj.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkgKey(obj.Pkg()) + "." + obj.Name()
}

// loadModule type-checks every package of the module and of bench/ and
// returns their import paths, sorted.
func loadModule(t *testing.T) (*moduleChecker, []string) {
	pkgs := map[string]goPackage{}
	listPackages(t, ".", pkgs)
	listPackages(t, "bench", pkgs)
	m := newModuleChecker(pkgs)
	var paths []string
	for path, p := range pkgs {
		if !p.standard {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return m, paths
}

// TestNoTestOnlyExports fails on code that only tests reach. Uses are
// resolved with go/types over every non-test .go file of the repo
// (bench/, cmd/ and examples/ included), so a name shared with another
// identifier does not count. It checks three kinds of dead code:
//   - an exported function, method, type, const or var declared under
//     internal/ that nothing uses outside its own declaration and other
//     such dead declarations; a method called through one of the
//     module's interfaces is used when a type whose method set holds it
//     implements that interface;
//   - an unexported package-level declaration or method of the main
//     module that nothing uses in the same way;
//   - a struct field of the main module that code writes but never
//     reads (see fieldUses).
//
// Delete such code with its tests, or move it into the _test.go file of
// the package that uses it.
func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
	m, paths := loadModule(t)
	checkDeadDecls(t, m, paths)
	checkWriteOnlyFields(t, m, paths)
	t.Logf("type-checked and walked %d packages in %v", len(paths), time.Since(start).Round(time.Millisecond))
}

// checkDeadDecls reports the exported internal/ declarations and the
// unexported declarations of the main module that no live code uses.
func checkDeadDecls(t *testing.T, m *moduleChecker, paths []string) {
	type decl struct{ key, pos string }
	var decls []decl
	// refs maps a declaration's key to the declarations whose bodies use
	// it; "" stands for code outside any package-level declaration.
	refs := map[string][]string{}
	// ifaceUses holds the interface methods called anywhere, each with
	// the declarations the calls sit in.
	type ifaceUse struct {
		fn    *types.Func
		owner string
	}
	ifaceUses := map[ifaceUse]bool{}
	var named []*types.Named // the module's package-level types
	for _, path := range paths {
		scope := m.done[path].Scope()
		for _, name := range scope.Names() {
			if n, ok := scope.Lookup(name).Type().(*types.Named); ok && scope.Lookup(name) == n.Obj() {
				named = append(named, n)
			}
		}
		internal := strings.HasPrefix(path, "fingers/internal/")
		info := m.info[path]
		// candidate reports whether the declaration of obj is checked.
		candidate := func(obj types.Object) bool {
			if obj.Exported() {
				return internal
			}
			return checked(path) && obj.Name() != "main"
		}
		// walk records the uses in n, made by the declaration of id.
		walk := func(n ast.Node, id *ast.Ident) {
			owner := declKey(info.Defs[id])
			if owner != "" && candidate(info.Defs[id]) {
				decls = append(decls, decl{owner, m.fset.Position(id.Pos()).String()})
			}
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceUses[ifaceUse{fn, owner}] = true
					}
				}
				// A method's receiver type is part of the type's own
				// declaration, not a use of it.
				if key := declKey(obj); key != "" && key != owner && !strings.HasPrefix(owner, key+".") {
					refs[key] = append(refs[key], owner)
				}
				return true
			})
		}
		for _, f := range m.files[path] {
			for _, dcl := range f.Decls {
				switch d := dcl.(type) {
				case *ast.FuncDecl:
					walk(d, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							walk(s, s.Name)
						case *ast.ValueSpec:
							walk(s, s.Names[0])
							for _, id := range s.Names[1:] {
								walk(id, id)
							}
						}
					}
				}
			}
		}
	}
	// A call through an interface uses the method every implementing
	// type's method set resolves it to, promoted methods included.
	for u := range ifaceUses {
		iface, ok := u.fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, n := range named {
			if types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, u.fn.Pkg(), u.fn.Name())
			if key := declKey(obj); key != "" && key != u.owner {
				refs[key] = append(refs[key], u.owner)
			}
		}
	}

	// A declaration is dead when every use of it sits in dead
	// declarations; iterate so that code only dead code uses is found too.
	dead := map[string]bool{}
	liveRef := func(key string) bool {
		for _, owner := range refs[key] {
			if !dead[owner] {
				return true
			}
		}
		return false
	}
	name := func(key string) string { return key[strings.LastIndex(key, ".")+1:] }
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			_, kept := testOnlyExports[d.key]
			if !dead[d.key] && !kept && !interfaceMethods[name(d.key)] && !liveRef(d.key) {
				dead[d.key], changed = true, true
			}
		}
	}
	var report []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if dead[d.key] {
			report = append(report, d.pos+": "+d.key)
		}
		if _, kept := testOnlyExports[d.key]; kept && liveRef(d.key) {
			t.Errorf("testOnlyExports lists %s, which non-test code now uses", d.key)
		}
	}
	sort.Strings(report)
	for _, r := range report {
		t.Errorf("%s has no user outside _test.go files", r)
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer declared", key)
		}
	}
}

// fieldDecl is a named, untagged struct field.
type fieldDecl struct {
	v        *types.Var
	typ, key string // pkg.Type and pkg.Type.Field
	pos      token.Pos
}

// structFields returns the named, untagged fields of the struct types in
// files. A field's type is the package-level declaration its struct
// sits in: the type, or the func or var of a struct declared inline.
func structFields(pkg string, files []*ast.File, info *types.Info) []fieldDecl {
	var out []fieldDecl
	add := func(n ast.Node, typ string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					if f.Tag != nil {
						continue
					}
					for _, id := range f.Names { // an embedded field has none
						out = append(out, fieldDecl{info.Defs[id].(*types.Var), typ, typ + "." + id.Name, id.Pos()})
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, dcl := range f.Decls {
			switch d := dcl.(type) {
			case *ast.FuncDecl:
				add(d, pkg+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s, pkg+"."+s.Name.Name)
					case *ast.ValueSpec:
						add(s, pkg+"."+s.Names[0].Name)
					}
				}
			}
		}
	}
	return out
}

// fieldUses records which struct fields code writes and which it reads.
// A field is written by an assignment, op-assignment or ++/-- to it, by
// a composite-literal key, and when a selector or array index on an
// assignment's left side reaches into it by value: x.s.f = 1 writes s
// when s is a struct, and x.arr[0].f = 1 writes arr when arr is an
// array. Every other use reads it, including &x.f and x.p.f = 1 for a
// pointer p.
type fieldUses struct {
	info          *types.Info // of the package being inspected
	written, read map[*types.Var]bool
}

func newFieldUses() *fieldUses {
	return &fieldUses{written: map[*types.Var]bool{}, read: map[*types.Var]bool{}}
}

// field returns the field x selects, or nil.
func (u *fieldUses) field(x *ast.SelectorExpr) (*types.Var, *types.Selection) {
	sel := u.info.Selections[x]
	if sel == nil || sel.Kind() != types.FieldVal {
		return nil, nil
	}
	return sel.Obj().(*types.Var).Origin(), sel
}

// inspect records the field uses in n.
func (u *fieldUses) inspect(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				u.assign(e)
			}
			for _, e := range n.Rhs {
				u.inspect(e)
			}
			return false
		case *ast.IncDecStmt:
			u.assign(n.X)
			return false
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() {
					u.written[v.Origin()] = true
					u.inspect(n.Value)
					return false
				}
			}
		case *ast.SelectorExpr:
			if v, _ := u.field(n); v != nil {
				u.read[v] = true
			}
		}
		return true
	})
}

// assign records the field uses of an assignment to e.
func (u *fieldUses) assign(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, sel := u.field(x); v != nil {
			u.written[v] = true
			if sel.Indirect() {
				u.inspect(x.X)
			} else {
				u.assign(x.X)
			}
			return
		}
	case *ast.IndexExpr:
		if _, ok := u.info.TypeOf(x.X).Underlying().(*types.Array); ok {
			u.assign(x.X)
			u.inspect(x.Index)
			return
		}
	}
	u.inspect(e)
}

// checkWriteOnlyFields reports the fields of the main module that code
// writes but never reads. It skips embedded and tagged fields (reflection
// encodes the latter) and the fields of types in testOnlyExports.
func checkWriteOnlyFields(t *testing.T, m *moduleChecker, paths []string) {
	var fields []fieldDecl
	u := newFieldUses()
	for _, path := range paths {
		u.info = m.info[path]
		for _, f := range m.files[path] {
			u.inspect(f)
		}
		if checked(path) {
			fields = append(fields, structFields(pkgKey(m.done[path]), m.files[path], u.info)...)
		}
	}
	var report []string
	for _, f := range fields {
		if _, kept := testOnlyExports[f.typ]; kept || !u.written[f.v] || u.read[f.v] {
			continue
		}
		_, byField := writeOnlyFields[f.key]
		_, byType := writeOnlyFields[f.typ]
		if !byField && !byType {
			report = append(report, m.fset.Position(f.pos).String()+": "+f.key)
		}
	}
	sort.Strings(report)
	for _, r := range report {
		t.Errorf("%s is written but never read outside _test.go files", r)
	}
	for key := range writeOnlyFields {
		declared := false
		for _, f := range fields {
			if f.key != key && f.typ != key {
				continue
			}
			declared = true
			if !u.written[f.v] || u.read[f.v] {
				t.Errorf("writeOnlyFields lists %s, but non-test code reads %s or never writes it", key, f.key)
			}
		}
		if !declared {
			t.Errorf("writeOnlyFields lists %s, which is no longer declared", key)
		}
	}
}

// TestFieldUses pins the write/read classification of the write-only
// field check on a small package.
func TestFieldUses(t *testing.T) {
	const src = `package p

type S struct{ f int }

type T struct {
	f   int
	arr [2]S
	p   *S
}

func use(x T) {
	%s
}
`
	cases := []struct {
		stmt          string
		written, read []string
	}{
		{"x.f = 1", []string{"T.f"}, nil},
		{"x.f += 1", []string{"T.f"}, nil},
		{"x.f++", []string{"T.f"}, nil},
		{"_ = T{f: 1}", []string{"T.f"}, nil},
		{"x.arr[0].f = 1", []string{"S.f", "T.arr"}, nil},
		{"_ = &x.f", nil, []string{"T.f"}},
		{"y := x.f; _ = y", nil, []string{"T.f"}},
		{"x.p.f = 1", []string{"S.f"}, []string{"T.p"}},
	}
	for _, c := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", fmt.Sprintf(src, c.stmt), 0)
		if err != nil {
			t.Fatal(err)
		}
		info := newInfo()
		if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		u := newFieldUses()
		u.info = info
		u.inspect(f)
		var written, read []string
		for _, fd := range structFields("p", []*ast.File{f}, info) {
			name := strings.TrimPrefix(fd.key, "p.")
			if u.written[fd.v] {
				written = append(written, name)
			}
			if u.read[fd.v] {
				read = append(read, name)
			}
		}
		if fmt.Sprint(written) != fmt.Sprint(c.written) || fmt.Sprint(read) != fmt.Sprint(c.read) {
			t.Errorf("%s: written %v read %v, want written %v read %v", c.stmt, written, read, c.written, c.read)
		}
	}
}
