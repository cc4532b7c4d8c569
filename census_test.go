package bsoap_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestExportCensus keeps exported surface that nothing uses from piling
// up. It type-checks the non-test code of every package in this module
// and in the benchmark module, and lists each exported func, method,
// type, var and const under internal/, and each exported field of an
// internal *Options struct, that no other package's non-test code
// references. Two kinds of name are not listed: a method whose name and
// signature match an interface method some code calls (it is reached
// through the interface), and the methods and fields of types bsoap.go
// re-exports (they are the public API).
//
// The list must equal testdata/census.txt, where each name carries a
// one-word reason for staying exported. A new unreferenced name therefore
// needs a visible edit to that file, and a name that leaves the code, or
// gains a user, must leave it too.
func TestExportCensus(t *testing.T) {
	c, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	got := c.unreferenced()
	want, err := readCensus("testdata/census.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool, len(want))
	for _, name := range want {
		listed[name] = true
	}
	found := make(map[string]bool, len(got))
	for _, name := range got {
		found[name] = true
		if !listed[name] {
			t.Errorf("unreferenced exported name %s: unexport or delete it, or list it in testdata/census.txt with a reason", name)
		}
	}
	for _, name := range want {
		if !found[name] {
			t.Errorf("testdata/census.txt lists %s, which is gone or now referenced: remove its line", name)
		}
	}
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/census.txt is not sorted")
	}
	t.Logf("%d unreferenced exported names", len(got))
}

// readCensus returns the names listed in a census file: one name and a
// reason per line; blank lines and lines starting with # are skipped.
func readCensus(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want a name and a reason", path, n)
		}
		names = append(names, fields[0])
	}
	return names, sc.Err()
}

// censusModules are the module roots the census reads, relative to the
// repository root, with their module paths.
var censusModules = []struct{ dir, path string }{
	{".", "bsoap"},
	{"benchmark", "bsoap/benchmark"},
}

// census type-checks module packages from their non-test sources and
// everything else through one shared source importer, so an object has
// one identity however many packages import it.
type census struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path → directory
	pkgs  map[string]*censusPkg
	order []*censusPkg
}

type censusPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// loadRepo type-checks the repository once for every test that reads
// its syntax trees and types.
var loadRepo = sync.OnceValues(func() (*census, error) { return loadCensus(".") })

// loadCensus type-checks every package of the modules under root.
func loadCensus(root string) (*census, error) {
	fset := token.NewFileSet()
	c := &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: make(map[string]string),
		pkgs: make(map[string]*censusPkg),
	}
	for i, m := range censusModules {
		dir := filepath.Join(root, m.dir)
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			// Each module's own walk covers its tree.
			for _, other := range censusModules[i+1:] {
				if p == filepath.Join(root, other.dir) {
					return filepath.SkipDir
				}
			}
			rel, _ := filepath.Rel(dir, p)
			c.dirs[path(m.path, filepath.ToSlash(rel))] = p
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.check(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func path(mod, rel string) string {
	if rel == "." {
		return mod
	}
	return mod + "/" + rel
}

func (c *census) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *census) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := c.dirs[path]; ok {
		p, err := c.check(path)
		if err == nil && p == nil {
			err = fmt.Errorf("census: no Go files in %s", dir)
		}
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// check type-checks one module package's non-test files under the
// default build context, once. A directory with no such files yields a
// nil package.
func (c *census) check(path string) (*censusPkg, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	c.pkgs[path] = nil // stays nil for a directory with no Go files
	dir := c.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &censusPkg{pkg: pkg, info: info, files: files}
	c.pkgs[path] = p
	c.order = append(c.order, p)
	return p, nil
}

// unreferenced applies the census rules to the checked packages.
func (c *census) unreferenced() []string {
	used := make(map[types.Object]bool)
	var ifaceCalls []*types.Func
	for _, p := range c.order {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.pkg {
				used[origin(obj)] = true
			}
		}
		for _, sel := range p.info.Selections {
			if sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
				ifaceCalls = append(ifaceCalls, sel.Obj().(*types.Func))
			}
		}
	}
	viaInterface := func(m *types.Func) bool {
		for _, f := range ifaceCalls {
			if f.Name() == m.Name() && types.Identical(f.Type(), m.Type()) {
				return true
			}
		}
		return false
	}

	// Types the facade re-exports: their methods and fields are API.
	facade := make(map[*types.Named]bool)
	if root := c.pkgs["bsoap"]; root != nil {
		scope := root.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					facade[n] = true
				}
			}
		}
	}

	var out []string
	for _, p := range c.order {
		rel, ok := strings.CutPrefix(p.pkg.Path(), "bsoap/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		note := func(obj types.Object, name string) {
			if !used[obj] {
				out = append(out, rel+"."+name)
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				note(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || facade[named] || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !viaInterface(m) {
					note(m, name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && strings.HasSuffix(name, "Options") {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						note(f, name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// origin maps an object of an instantiated generic type or function back
// to the one declared.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
