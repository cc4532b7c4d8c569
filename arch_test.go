package bsoap_test

import (
	"go/types"
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

	// A from-scratch send is CallHeld(nil, m), the one way to ask for it.
	t.Run("core.Config has no DisableDiff field", func(t *testing.T) {
		cfg := pkg(t, "bsoap/internal/core").pkg.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
		for i := 0; i < cfg.NumFields(); i++ {
			if f := cfg.Field(i); f.Name() == "DisableDiff" {
				t.Errorf("%s: core.Config.DisableDiff", c.fset.Position(f.Pos()))
			}
		}
	})
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
