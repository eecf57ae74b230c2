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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.done[path], m.files[path], m.info[path] = pkg, files, info
	return pkg, nil
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
			return obj.Pkg().Name() + "." + n.Origin().Obj().Name() + "." + obj.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// TestNoTestOnlyExports fails on any exported function, method, type,
// const or var declared under internal/ that no non-test .go file of the
// repo (bench/, cmd/ and examples/ included) uses outside its own
// declaration and other such declarations. Such code is reached only by
// tests: delete it with its tests, or move it into the _test.go file of
// the package that uses it. Uses are resolved with go/types, so a name
// shared with another identifier does not count; a method called through
// one of the module's interfaces is used when a type whose method set
// holds it implements that interface.
func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
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

	type decl struct{ key, pos string }
	var decls []decl
	// refs maps a declaration's key to the exported internal/
	// declarations whose bodies use it; "" stands for any other code.
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
		// walk records the uses in n, made by the declaration of id.
		walk := func(n ast.Node, id *ast.Ident) {
			owner := ""
			if key := declKey(info.Defs[id]); internal && id.IsExported() && key != "" {
				owner = key
				decls = append(decls, decl{key, m.fset.Position(id.Pos()).String()})
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
	t.Logf("type-checked %d packages in %v", len(paths), time.Since(start).Round(time.Millisecond))
}
