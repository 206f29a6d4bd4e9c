package repro

import (
	"fmt"
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

// TestNoShippedCodeImportsTesting keeps benchmark and test helpers in
// _test.go files: no non-test Go file under cmd/ or internal/ may import
// "testing", so the shipped binaries never link the test framework.
func TestNoShippedCodeImportsTesting(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "testing" {
					t.Errorf("%s imports \"testing\"", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// testOnlyAllowed lists the exported declarations that no shipped file
// calls and that stay shipped anyway, keyed as reported ("pkg.Func" or
// "pkg.Type.Method"), each with its reason.
var testOnlyAllowed = map[string]string{
	// README §5: the paper's attribute retraining, documented library API.
	"core.RetargetDstPorts":  "README §5 attribute retraining",
	"core.RetargetProtocols": "README §5 attribute retraining",
	"core.RetargetSrcIPs":    "README §5 attribute retraining",
	// The paper-evaluation suite, bench_test.go (EXPERIMENTS.md).
	"core.Headers":         "BenchmarkChecksum derives the IPv4 headers of a trace",
	"trace.VerifyChecksum": "BenchmarkChecksum checks the derived header checksums",
	"experiments.RunByID":  "every figure and table benchmark runs its experiment by id",
	// Cross-package test hooks with no shipped equivalent.
	"mat.ForEachKernelSet":          "other packages' tests run every matmul kernel set through it",
	"telemetry.Registry.SetEnabled": "core's strictly-observational tests train with recording off",
	"nn.ClipGradNorm":               "privacy's serial DP-SGD reference clips a module's gradients with it",
	"core.synthesizer.LabelCatalog": "conformance and webapi tests pick scenario labels from it",
	"conformance.ScenarioMatrix":    "webapi's conditional serving test scores labels through it",
}

// TestNoShippedCodeOnlyTestsCall fails when an exported function or
// method declared in a non-test file under cmd/ or internal/ is
// referenced by no non-test file under cmd/, internal/, examples/ or
// e2ebench/: code that only tests reach belongs in a _test.go file.
func TestNoShippedCodeOnlyTestsCall(t *testing.T) {
	unused, stale, err := testOnlyExports(".", "repro",
		[]string{"cmd", "internal"},
		[]string{"cmd", "internal", "examples", "e2ebench"},
		testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: no shipped file references it; move it into a _test.go file, delete it, or allowlist it with a reason", u)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %s names no declaration that only tests reach; drop it", key)
	}
}

// TestTestOnlyExportsFixture runs the guard's matcher over a fixture
// module, so the guard cannot pass by matching nothing.
func TestTestOnlyExportsFixture(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	got, stale, err := testOnlyExports(root, "fixture",
		[]string{"lib"}, []string{"lib", "app"},
		map[string]string{"lib.Allowed": "fixture allowlist entry", "lib.Used": "referenced, so stale"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 || stale[0] != "lib.Used" {
		t.Errorf("stale allowlist entries %q, want [lib.Used]", stale)
	}
	var names []string
	for _, g := range got {
		names = append(names, strings.Fields(g)[0])
	}
	want := []string{"lib.T.TestOnlyMethod", "lib.TestOnly"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("reported %q, want %q", got, want)
	}
}

// testOnlyExports returns "key (file:line)" for every exported function
// or method declared in a non-test file under declRoots that no non-test
// file under refRoots references, except the keys in allow, and the keys
// in allow that excuse no such declaration (stale). declRoots must be
// among refRoots; roots are relative to dir, the root of module mod. It
// uses go/ast alone:
//   - a package-level function is referenced when a shipped file of its
//     own package names it, or another shipped file selects it through
//     that package's import name;
//   - a method is referenced when any shipped file has a selector with
//     its name, so interface dispatch never raises a false alarm.
func testOnlyExports(dir, mod string, declRoots, refRoots []string, allow map[string]string) (unused, stale []string, err error) {
	type decl struct {
		pos  token.Position
		pkg  string // import path
		recv string // receiver type name; "" for a function
		name string
	}
	var (
		fset      = token.NewFileSet()
		decls     []decl
		pkgNames  = map[string]string{} // import path -> package name
		named     = map[string]bool{}   // import path + "." + bare identifier
		selected  = map[string]bool{}   // import path + "." + selected name
		selectors = map[string]bool{}   // any selected name
	)
	isDeclRoot := func(rel string) bool {
		for _, r := range declRoots {
			if rel == r || strings.HasPrefix(rel, r+"/") {
				return true
			}
		}
		return false
	}
	for _, root := range refRoots {
		err := filepath.WalkDir(filepath.Join(dir, root), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			pkg := path.Join(mod, rel)
			pkgNames[pkg] = f.Name.Name
			imports := map[string]string{} // local name -> import path
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				local := path.Base(ip)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = ip
			}
			notBare := map[*ast.Ident]bool{} // declared names and selected names
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				notBare[fd.Name] = true
				if !fd.Name.IsExported() || !isDeclRoot(rel) {
					continue
				}
				dc := decl{pos: fset.Position(fd.Pos()), pkg: pkg, name: fd.Name.Name}
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					dc.recv = recvName(fd.Recv.List[0].Type)
				}
				decls = append(decls, dc)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					notBare[n.Sel] = true
					selectors[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							selected[ip+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if !notBare[n] {
						named[pkg+"."+n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	excused := map[string]bool{}
	for _, d := range decls {
		key := pkgNames[d.pkg] + "." + d.name
		used := named[d.pkg+"."+d.name] || selected[d.pkg+"."+d.name]
		if d.recv != "" {
			key = pkgNames[d.pkg] + "." + d.recv + "." + d.name
			used = selectors[d.name]
		}
		if used {
			continue
		}
		if allow[key] != "" {
			excused[key] = true
			continue
		}
		rel, _ := filepath.Rel(dir, d.pos.Filename)
		unused = append(unused, fmt.Sprintf("%s (%s:%d)", key, filepath.ToSlash(rel), d.pos.Line))
	}
	for key := range allow {
		if !excused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

// recvName returns the type name of a method receiver such as T, *T or
// *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
