package lockdown_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAPIAllow lists the exported functions and methods under internal/
// that may lack a non-test caller, each with the reason. Keys are
// "<import path>.<Func>" or "<import path>.<Type>.<Method>"; a key of the
// form "*.<Method>" admits that method name on every receiver.
var deadAPIAllow = map[string]string{
	"*.String": "fmt.Stringer: called through the interface, never by name",
	"*.Error":  "error interface: called through the interface, never by name",
	"*.Unwrap": "errors.Is/As walk the chain through the Unwrap interface",

	"lockdown/internal/goldentest.RunSuite":       "test support: the golden tests of core, replay and cluster share it",
	"lockdown/internal/goldentest.CompareResults": "test support: the golden tests compare results with it",
	"lockdown/internal/synth.MustNewDefault":      "test support: tests build the default generator with it",

	"lockdown/internal/flowrec.Batch.Records":          "Record oracle: batch tests compare against the per-record form",
	"lockdown/internal/flowrec.FromRecords":            "Record oracle: builds batches from hand-written records in tests",
	"lockdown/internal/appclass.Classifier.Classify":   "Record oracle for the compiled class program",
	"lockdown/internal/appclass.Classifier.ClassifyAt": "Record oracle for the compiled class program",
	"lockdown/internal/appclass.ClassifyEDU":           "Record oracle for the EDU class kernel",
	"lockdown/internal/appclass.ClassifyEDUAt":         "Record oracle for the EDU class kernel",
	"lockdown/internal/appclass.CountEDUByClassDir":    "Record oracle for CountEDUByClassDirBatch",
	"lockdown/internal/vpndetect.Detector.Classify":    "Record oracle for the VPN split kernel",
	"lockdown/internal/vpndetect.Detector.ClassifyAt":  "Record oracle for the VPN split kernel",
	"lockdown/internal/vpndetect.Detector.Split":       "Record oracle for the VPN split kernel",
}

// TestNoDeadExportedAPI fails when an exported top-level function or
// method under internal/ is referenced by name from no non-test file of
// the module tree (commands, examples and perfbench included). Package
// functions must be referenced through their own package; methods match
// by name alone, since telling receivers apart would need type checking.
func TestNoDeadExportedAPI(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	funcRefs := map[string]bool{}   // "<import path>.<Func>"
	methodRefs := map[string]bool{} // "<Method>"

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "lockdown"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		if strings.HasPrefix(pkg, "lockdown/internal/") {
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fn.Pos())})
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a reference; walk the rest.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						funcRefs[p+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				funcRefs[pkg+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		parts := strings.Split(strings.TrimPrefix(d.key, "lockdown/internal/"), ".")
		method := len(parts) == 3
		name := parts[len(parts)-1]
		if (method && methodRefs[name]) || (!method && funcRefs[d.key]) {
			continue
		}
		if _, ok := deadAPIAllow[d.key]; ok {
			continue
		}
		if _, ok := deadAPIAllow["*."+name]; ok && method {
			continue
		}
		dead = append(dead, d.pos.String()+": "+strings.TrimPrefix(d.key, "lockdown/internal/"))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but referenced by no non-test file: %s", d)
	}
	for key := range deadAPIAllow {
		if !strings.HasPrefix(key, "*.") && !declared[key] {
			t.Errorf("allowlist entry %s names nothing declared; remove it", key)
		}
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
