package bsoap_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.txt from the tree")

// TestCounts keeps the figures a simplicity change reports — lines,
// exported names, locks, options, flags, metric families and guards — in
// testdata/counts.txt, so a change's diff of that file is its count
// report. It fails naming each figure that moved; `go test -run
// TestCounts -update .` rewrites the file.
func TestCounts(t *testing.T) {
	c, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	got, err := repoCounts(c)
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/counts.txt"
	if *update {
		var b strings.Builder
		b.WriteString("# The repository's counts, written by `go test -run TestCounts -update .`\n")
		for _, f := range got {
			fmt.Fprintf(&b, "%s %d\n", f.name, f.n)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	for _, f := range got {
		n := fmt.Sprint(f.n)
		if w, ok := want[f.name]; !ok {
			t.Errorf("%s: %s, not in %s", f.name, n, path)
		} else if w != n {
			t.Errorf("%s: %s, %s says %s", f.name, n, path, w)
		}
		delete(want, f.name)
	}
	for name := range want {
		t.Errorf("%s: in %s, no longer counted", name, path)
	}
	if t.Failed() {
		t.Log("if the change is meant, rewrite the file with `go test -run TestCounts -update .` and quote its diff")
	}
}

// figure is one named count.
type figure struct {
	name string
	n    int
}

// repoCounts computes every figure, in a fixed order.
func repoCounts(c *census) ([]figure, error) {
	var out []figure
	add := func(name string, n int) { out = append(out, figure{name, n}) }

	lines, err := nonTestLines(".")
	if err != nil {
		return nil, err
	}
	add("non-test lines outside benchmark/", lines)

	// The module's own packages, not the benchmark's; main packages are
	// commands, whose names nothing imports.
	var pkgs []*censusPkg
	for path, p := range c.pkgs {
		if p != nil && !strings.HasPrefix(path, "bsoap/benchmark") {
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].pkg.Path() < pkgs[j].pkg.Path() })

	exported := 0
	for _, p := range pkgs {
		if p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exported++
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if named.Method(i).Exported() {
					exported++
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if u.Field(i).Exported() {
						exported++
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if u.ExplicitMethod(i).Exported() {
						exported++
					}
				}
			}
		}
	}
	add("exported names (top level, methods, fields)", exported)

	census, err := readCensus("testdata/census.txt")
	if err != nil {
		return nil, err
	}
	add("census entries", len(census))

	// A mutex is a use of its type: a field, variable or embedding.
	syncPkg, err := c.std.ImportFrom("sync", ".", 0)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"Mutex", "RWMutex"} {
		mutex, n := syncPkg.Scope().Lookup(name), 0
		for _, p := range pkgs {
			for _, obj := range p.info.Uses {
				if obj == mutex {
					n++
				}
			}
		}
		add("mutexes sync."+name, n)
	}

	for _, side := range []struct{ name, page string }{
		{"client", "internal/pool/testdata/client.prom"},
		{"server", "internal/transport/testdata/server.prom"},
	} {
		page, err := os.ReadFile(side.page)
		if err != nil {
			return nil, err
		}
		add("metric families "+side.name, bytes.Count(page, []byte("\n# TYPE ")))
	}

	for _, p := range pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				add("fields "+p.pkg.Name()+"."+name, st.NumFields())
			}
		}
	}

	// A flag is declared by a call of package flag's or a FlagSet's
	// declaring functions.
	declares := regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?$|^(Var|Func|BoolFunc|TextVar)$`)
	flags := 0
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "flag" && declares.MatchString(f.Name()) {
				flags++
			}
		}
	}
	add("CLI flag declarations", flags)

	script, err := os.ReadFile("check.sh")
	if err != nil {
		return nil, err
	}
	add("check.sh absent guards", len(regexp.MustCompile(`(?m)^\s*absent "`).FindAll(script, -1)))

	cases, err := archCases("arch_test.go")
	if err != nil {
		return nil, err
	}
	add("TestArchitecture cases", cases)
	return out, nil
}

// nonTestLines counts the lines of the Go files under root that are not
// tests, outside benchmark/ and hidden directories.
func nonTestLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || p == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(p)
		n += bytes.Count(b, []byte("\n"))
		return err
	})
	return n, err
}

// archCases counts the t.Run cases of TestArchitecture.
func archCases(path string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "TestArchitecture" {
			continue
		}
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
					n++
				}
			}
			return true
		})
	}
	return n, nil
}
