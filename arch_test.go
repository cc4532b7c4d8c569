package bsoap_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestArchitecture states structural rules on the type-checked non-test
// code (the census loader, census_test.go), so a rename or a reformatted
// line cannot slip past them as it can past a grep. Each rule is one
// named case that reports what breaks it.
func TestArchitecture(t *testing.T) {
	c, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	pkg := func(t *testing.T, path string) *censusPkg {
		t.Helper()
		p := c.pkgs[path]
		if p == nil {
			t.Fatalf("package %s not loaded", path)
		}
		return p
	}

	// The deserializer keeps one key per registered operation: no
	// recency list evicts its keys, so it is one template level, not two.
	t.Run("diffdeser references no replica.LRU", func(t *testing.T) {
		lru := pkg(t, "bsoap/internal/replica").pkg.Scope().Lookup("LRU").(*types.TypeName)
		p := pkg(t, "bsoap/internal/diffdeser")
		for id, obj := range p.info.Uses {
			if refersTo(origin(obj), lru) {
				t.Errorf("%s: %s uses replica.LRU", c.fset.Position(id.Pos()), id.Name)
			}
		}
	})

	// A server replica holds every retained request body in its delta
	// keeper, a request that names no template under an id derived from
	// its operation and length: no deserializer keeps a second store
	// beside it.
	t.Run("serverpool holds no diffdeser.Deserializer", func(t *testing.T) {
		dd, _ := pkg(t, "bsoap/internal/diffdeser").pkg.Scope().Lookup("Deserializer").(*types.TypeName)
		if dd == nil {
			return
		}
		for id, obj := range pkg(t, "bsoap/internal/serverpool").info.Uses {
			if refersTo(origin(obj), dd) {
				t.Errorf("%s: %s refers to diffdeser.Deserializer", c.fset.Position(id.Pos()), id.Name)
			}
		}
	})

	// The diff walk finds a changed leaf by seeking forward from the last
	// one hit (seek), not by a binary search of the whole range table.
	t.Run("diffdeser calls no binary search", func(t *testing.T) {
		for id, obj := range pkg(t, "bsoap/internal/diffdeser").info.Uses {
			f, ok := obj.(*types.Func)
			if !ok || f.Pkg() == nil {
				continue
			}
			if path := f.Pkg().Path(); path == "sort" && strings.HasPrefix(f.Name(), "Search") ||
				path == "slices" && strings.HasPrefix(f.Name(), "BinarySearch") {
				t.Errorf("%s: %s.%s in diffdeser", c.fset.Position(id.Pos()), path, f.Name())
			}
		}
	})

	// Template memory is charged at what the layouts hold: a decode
	// template's ranges at unsafe.Sizeof(soapdec.LeafRange{}), not at a
	// constant.
	t.Run("diffdeser charges ranges at their layout's size", func(t *testing.T) {
		p := pkg(t, "bsoap/internal/diffdeser")
		sizeof := types.Unsafe.Scope().Lookup("Sizeof")
		leafRange := pkg(t, "bsoap/internal/soapdec").pkg.Scope().Lookup("LeafRange")
		found := false
		funcsIn(c, p, func(_ string, d *ast.FuncDecl) {
			if d.Name.Name != "SizeBytes" || !receiverIs(d, "Template") || d.Body == nil {
				return
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || p.info.Uses[sel.Sel] != sizeof {
					return true
				}
				ast.Inspect(call.Args[0], func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == leafRange {
						found = true
					}
					return !found
				})
				return true
			})
		})
		if !found {
			t.Error("diffdeser: Template.SizeBytes does not charge unsafe.Sizeof(soapdec.LeafRange{}) per range")
		}
	})

	// A from-scratch send is CallHeld(nil, m), the one way to ask for it.
	t.Run("core.Config has no DisableDiff field", func(t *testing.T) {
		cfg := pkg(t, "bsoap/internal/core").pkg.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
		for i := 0; i < cfg.NumFields(); i++ {
			if f := cfg.Field(i); f.Name() == "DisableDiff" {
				t.Errorf("%s: core.Config.DisableDiff", c.fset.Position(f.Pos()))
			}
		}
	})

	// A server replica holds each operation's response template itself,
	// as a pool engine does: it serializes through CallHeld, never
	// through the stub's own store.
	t.Run("serverpool calls neither Stub.Call nor Stub.Store", func(t *testing.T) {
		stub := pkg(t, "bsoap/internal/core").pkg.Scope().Lookup("Stub").(*types.TypeName)
		banned := []*types.Func{methodNamed(stub, "Call"), methodNamed(stub, "Store")}
		for id, obj := range pkg(t, "bsoap/internal/serverpool").info.Uses {
			if f, ok := obj.(*types.Func); ok && slices.Contains(banned, f) {
				t.Errorf("%s: serverpool calls Stub.%s", c.fset.Position(id.Pos()), f.Name())
			}
		}
	})

	// Whoever holds a template charges its footprint: the stub keeps no
	// footprint cache of its own.
	t.Run("core.Stub has no Footprint method", func(t *testing.T) {
		stub := pkg(t, "bsoap/internal/core").pkg.Scope().Lookup("Stub").(*types.TypeName)
		if f := methodNamed(stub, "Footprint"); f != nil {
			t.Errorf("%s: Stub.Footprint", c.fset.Position(f.Pos()))
		}
	})

	// The retry policy is the pool's constants (maxRetries,
	// dialAttempts, redialBackoff, redialBackoffMax, retryBudget): no
	// binary, example or benchmark set another value. A retry knob
	// coming back is a field named as one was, or any duration.
	t.Run("pool.Options has no retry-tuning field", func(t *testing.T) {
		opts := pkg(t, "bsoap/internal/pool").pkg.Scope().Lookup("Options").Type().Underlying().(*types.Struct)
		knobs := []string{"MaxRetries", "DialAttempts", "RedialBackoff", "RedialBackoffMax", "RetryBudget"}
		for i := 0; i < opts.NumFields(); i++ {
			f := opts.Field(i)
			if named, ok := f.Type().(*types.Named); slices.Contains(knobs, f.Name()) ||
				ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration" {
				t.Errorf("%s: pool.Options.%s", c.fset.Position(f.Pos()), f.Name())
			}
		}
	})

	// On the wire only the pool speaks delta: an annotated request is a
	// Submit, and a bare send is plain. So the Sender is a core.Sink but
	// not a core.DeltaSink, and a bare stub over it never encodes a patch.
	t.Run("transport.Sender has no SendFull or SendDelta method", func(t *testing.T) {
		sender := pkg(t, "bsoap/internal/transport").pkg.Scope().Lookup("Sender").(*types.TypeName)
		for _, name := range []string{"SendFull", "SendDelta"} {
			if f := methodNamed(sender, name); f != nil {
				t.Errorf("%s: Sender.%s", c.fset.Position(f.Pos()), name)
			}
		}
		ds := pkg(t, "bsoap/internal/core").pkg.Scope().Lookup("DeltaSink").Type().Underlying().(*types.Interface)
		if types.Implements(types.NewPointer(sender.Type()), ds) {
			t.Errorf("%s: *transport.Sender implements core.DeltaSink", c.fset.Position(sender.Pos()))
		}
	})

	// The server always decodes differentially. The option that once
	// turned it off stays, ignored, only because the benchmark sets it.
	t.Run("only the benchmark names serverpool.Options.DifferentialDeserialization", func(t *testing.T) {
		sp := pkg(t, "bsoap/internal/serverpool").pkg
		field, _, _ := types.LookupFieldOrMethod(sp.Scope().Lookup("Options").Type(), false, sp, "DifferentialDeserialization")
		if field == nil {
			return
		}
		for path, p := range c.pkgs {
			if p == nil || path == "bsoap/benchmark" || strings.HasPrefix(path, "bsoap/benchmark/") {
				continue
			}
			for id, obj := range p.info.Uses {
				if obj == field {
					t.Errorf("%s: %s names DifferentialDeserialization", c.fset.Position(id.Pos()), path)
				}
			}
		}
	})

	// A client connection is one Sender: it is its own pipeline, with no
	// pipeline type beside it, and the one type with a Submit method.
	t.Run("transport has no pipeline type beside the Sender", func(t *testing.T) {
		p := pkg(t, "bsoap/internal/transport")
		for _, name := range []string{"Pipeline", "NewPipeline"} {
			if obj := p.pkg.Scope().Lookup(name); obj != nil {
				t.Errorf("%s: transport.%s", c.fset.Position(obj.Pos()), name)
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || name == "Sender" || tn.IsAlias() {
				continue
			}
			if f := methodNamed(tn, "Submit"); f != nil {
				t.Errorf("%s: %s.Submit beside Sender.Submit", c.fset.Position(f.Pos()), name)
			}
		}
	})

	// The client reads a response at one place, readOldest, whoever
	// waits for it: no inline read beside the queue.
	t.Run("the client reads responses only in readOldest", func(t *testing.T) {
		p := pkg(t, "bsoap/internal/transport")
		read := p.pkg.Scope().Lookup("ReadResponseInto")
		funcsIn(c, p, func(_ string, d *ast.FuncDecl) {
			if d.Name.Name == "readOldest" || d.Body == nil {
				return
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == read {
					t.Errorf("%s: %s reads a response", c.fset.Position(id.Pos()), d.Name.Name)
				}
				return true
			})
		})
	})

	// The client connection runs on its callers' goroutines: the Sender
	// starts none (no reader loop) and makes no wake-up channel, and a
	// future is waited on, not selected on.
	t.Run("the Sender starts no goroutine", func(t *testing.T) {
		p := pkg(t, "bsoap/internal/transport")
		sender := p.pkg.Scope().Lookup("Sender").(*types.TypeName)
		if f := methodNamed(sender, "readLoop"); f != nil {
			t.Errorf("%s: Sender.readLoop", c.fset.Position(f.Pos()))
		}
		funcsIn(c, p, func(file string, d *ast.FuncDecl) {
			if file != "sender.go" && !receiverIs(d, "Sender") || d.Body == nil {
				return
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: %s starts a goroutine", c.fset.Position(g.Pos()), d.Name.Name)
				}
				return true
			})
		})
	})
	t.Run("sender.go makes no channel", func(t *testing.T) {
		p := pkg(t, "bsoap/internal/transport")
		funcsIn(c, p, func(file string, d *ast.FuncDecl) {
			if file != "sender.go" || d.Body == nil {
				return
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || p.info.Uses[id] != types.Universe.Lookup("make") {
					return true
				}
				if isChanExpr(p.info, call.Args[0]) {
					t.Errorf("%s: %s makes a channel", c.fset.Position(call.Pos()), d.Name.Name)
				}
				return true
			})
		})
	})
	t.Run("pool.Future has no channel accessor", func(t *testing.T) {
		future := pkg(t, "bsoap/internal/pool").pkg.Scope().Lookup("Future").(*types.TypeName)
		ms := types.NewMethodSet(types.NewPointer(future.Type()))
		for i := 0; i < ms.Len(); i++ {
			f := ms.At(i).Obj().(*types.Func)
			chanResult := false
			res := f.Type().(*types.Signature).Results()
			for j := 0; j < res.Len(); j++ {
				_, ok := res.At(j).Type().Underlying().(*types.Chan)
				chanResult = chanResult || ok
			}
			if chanResult || f.Name() == "Done" {
				t.Errorf("%s: Future.%s", c.fset.Position(f.Pos()), f.Name())
			}
		}
	})

	// strconvCalls lists, in position order, the uses of the named
	// strconv functions in the non-test code of the packages under
	// internal/ named by dirs.
	type site struct {
		pos  token.Position
		name string
	}
	strconvCalls := func(t *testing.T, names []string, dirs ...string) []site {
		var sites []site
		for _, d := range dirs {
			for id, obj := range pkg(t, "bsoap/internal/"+d).info.Uses {
				if f, ok := obj.(*types.Func); ok && f.Pkg().Path() == "strconv" && slices.Contains(names, f.Name()) {
					sites = append(sites, site{c.fset.Position(id.Pos()), f.Name()})
				}
			}
		}
		sort.Slice(sites, func(i, j int) bool {
			a, b := sites[i].pos, sites[j].pos
			return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
		})
		return sites
	}

	// On the SOAP value path strconv's float routines appear at one
	// place, the parser's fallback for input it has already validated
	// (xsdlex/atof.go): a second call site is a second grammar (strconv
	// reads hex floats, underscores and "Infinity") or a second spelling
	// of the shortest form. promtext and bsoap-inspect format metrics,
	// not messages, and are not on the list.
	t.Run("value path calls strconv floats only in the parser's fallback", func(t *testing.T) {
		fallback := 0
		for _, s := range strconvCalls(t, []string{"ParseFloat", "AppendFloat", "FormatFloat"},
			"xsdlex", "fastconv", "core", "soapdec", "diffdeser", "multiref", "baseline", "soapenv") {
			if s.name == "ParseFloat" && strings.HasSuffix(filepath.ToSlash(s.pos.Filename), "internal/xsdlex/atof.go") && fallback == 0 {
				fallback++
				continue
			}
			t.Errorf("%s: strconv.%s on the value path", s.pos, s.name)
		}
	})

	// Ints print through xsdlex.AppendInt, the double printer's digit
	// writer, on both the template and the from-scratch path: no second
	// int printer in the packages that render values.
	t.Run("value path prints ints only through xsdlex.AppendInt", func(t *testing.T) {
		for _, s := range strconvCalls(t, []string{"AppendInt", "FormatInt", "Itoa"},
			"xsdlex", "fastconv", "core", "soapenv") {
			t.Errorf("%s: strconv.%s on the value path", s.pos, s.name)
		}
	})
}

// funcsIn calls fn for every function declared in p's non-test files,
// with the name of the file it is declared in.
func funcsIn(c *census, p *censusPkg, fn func(file string, d *ast.FuncDecl)) {
	for _, f := range p.files {
		file := filepath.Base(c.fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok {
				fn(file, d)
			}
		}
	}
}

// receiverIs reports whether d is a method of the named type, on a
// value or a pointer receiver.
func receiverIs(d *ast.FuncDecl, name string) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == name
}

// methodNamed looks name up among the methods of *T, for T the named
// type tn; nil when it has none of that name.
func methodNamed(tn *types.TypeName, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, tn.Pkg(), name)
	f, _ := obj.(*types.Func)
	return f
}

// refersTo reports whether obj is the type tn, or a value, function or
// method whose type, receiver or results name it.
func refersTo(obj types.Object, tn *types.TypeName) bool {
	if obj == tn {
		return true
	}
	if f, ok := obj.(*types.Func); ok {
		sig := f.Type().(*types.Signature)
		return sig.Recv() != nil && mentions(sig.Recv().Type(), tn) || mentions(sig.Results(), tn)
	}
	return mentions(obj.Type(), tn)
}

// isChanExpr reports whether the type expression e denotes a channel:
// a channel type literal, or a name whose type is one.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ChanType:
		return true
	case *ast.ParenExpr:
		return isChanExpr(info, e.X)
	case *ast.Ident:
		return chanTypeName(info.Uses[e])
	case *ast.SelectorExpr:
		return chanTypeName(info.Uses[e.Sel])
	}
	return false
}

func chanTypeName(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	_, ok = tn.Type().Underlying().(*types.Chan)
	return ok
}

// mentions reports whether t is, points to or returns the named type
// tn, instantiated or not.
func mentions(t types.Type, tn *types.TypeName) bool {
	switch t := t.(type) {
	case *types.Named:
		return t.Origin().Obj() == tn
	case *types.Pointer:
		return mentions(t.Elem(), tn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if mentions(t.At(i).Type(), tn) {
				return true
			}
		}
	}
	return false
}
