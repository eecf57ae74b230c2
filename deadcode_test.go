package fingers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
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

// testOnlyExports are the exported functions under internal/ that only
// test files call and that stay exported on purpose: tests in other
// packages use them, so they cannot move into one package's _test.go.
var testOnlyExports = map[string]string{
	"plan.MustCompile":         "panicking Compile for fixed patterns in the tests of seven packages",
	"telemetry.NewRunLog":      "builds run logs in the tests of three packages",
	"setops.Workload.LongLen":  "the fingers chargeOp reference test reads it",
	"setops.Workload.ShortLen": "the fingers chargeOp reference test reads it",
	"stats.Histogram.Buckets":  "the profile tests read the histogram's buckets",
	"trend.ParseSummary":       "the fingerstat golden tests parse the trend JSON back",
}

// TestNoTestOnlyExports fails on any exported function or method declared
// under internal/ whose name no non-test .go file of the repo (bench/,
// cmd/ and examples/ included) mentions outside its own declaration and
// other such functions. Such code is reached only by tests: delete it
// with its tests, or move it into the _test.go file of the package that
// uses it. Names are matched without type information, so a name shared
// with a used identifier passes; a selector on a package from outside
// the module (sort.IsSorted) does not count as a use.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	// refs maps a name to the exported internal/ functions whose bodies
	// mention it; "" stands for any other declaration.
	refs := map[string][]string{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		foreign := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "fingers" || strings.HasPrefix(p, "fingers/") {
				continue
			}
			n := path.Base(p)
			if imp.Name != nil {
				n = imp.Name.Name
			}
			foreign[n] = true
		}
		internal := strings.HasPrefix(filepath.ToSlash(file), "internal/")
		for _, dcl := range f.Decls {
			self, owner := "", ""
			if fd, ok := dcl.(*ast.FuncDecl); ok {
				self = fd.Name.Name
				if internal && fd.Name.IsExported() {
					owner = f.Name.Name + "." + self
					if fd.Recv != nil {
						owner = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + self
					}
					decls = append(decls, decl{owner, self, fset.Position(fd.Pos()).String()})
				}
			}
			ast.Inspect(dcl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && foreign[x.Name] {
						return false
					}
				case *ast.Ident:
					if n.Name != self {
						refs[n.Name] = append(refs[n.Name], owner)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A function is dead when every mention of its name sits in dead
	// functions; iterate so that code only dead code calls is found too.
	dead := map[string]bool{}
	liveRef := func(d decl) bool {
		for _, owner := range refs[d.name] {
			if !dead[owner] && owner != d.key {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			_, kept := testOnlyExports[d.key]
			if !dead[d.key] && !kept && !interfaceMethods[d.name] && !liveRef(d) {
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
		if _, kept := testOnlyExports[d.key]; kept && liveRef(d) {
			t.Errorf("testOnlyExports lists %s, which non-test code now calls", d.key)
		}
	}
	sort.Strings(report)
	for _, r := range report {
		t.Errorf("%s has no caller outside _test.go files", r)
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer declared", key)
		}
	}
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
