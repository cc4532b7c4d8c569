package wire

import (
	"math/rand"
	"testing"
)

// TestRandomConstructionInvariants builds random messages and checks
// the structural invariants every serializer relies on: leaf counts
// match parameter declarations, leaf indexes are dense and in document
// order, values round-trip through the flat storage, and signatures are
// deterministic.
func TestRandomConstructionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		m := NewMessage("urn:prop", "op")
		expectedLeaves := 0
		type check func() bool
		var checks []check

		mio := StructOf("ns1:MIO",
			Field{Name: "x", Type: TInt},
			Field{Name: "y", Type: TInt},
			Field{Name: "value", Type: TDouble},
		)

		for p := rng.Intn(5) + 1; p > 0; p-- {
			switch rng.Intn(5) {
			case 0:
				v := int32(rng.Uint32())
				r := m.AddInt("i", v)
				expectedLeaves++
				checks = append(checks, func() bool { return r.Get() == v })
			case 1:
				v := rng.NormFloat64()
				r := m.AddDouble("d", v)
				expectedLeaves++
				checks = append(checks, func() bool { return r.Get() == v })
			case 2:
				n := rng.Intn(20)
				r := m.AddDoubleArray("da", n)
				expectedLeaves += n
				if n > 0 {
					i := rng.Intn(n)
					v := rng.Float64()
					r.Set(i, v)
					checks = append(checks, func() bool { return r.Get(i) == v })
				}
			case 3:
				n := rng.Intn(10)
				r := m.AddStructArray("ma", mio, n)
				expectedLeaves += 3 * n
				if n > 0 {
					i := rng.Intn(n)
					r.SetDouble(i, 2, 7.5)
					checks = append(checks, func() bool { return r.Double(i, 2) == 7.5 })
				}
			case 4:
				r := m.AddStruct("s", mio)
				expectedLeaves += 3
				r.SetInt(1, 9)
				checks = append(checks, func() bool { return r.Int(1) == 9 })
			}
		}

		if m.NumLeaves() != expectedLeaves {
			t.Fatalf("trial %d: %d leaves, expected %d", trial, m.NumLeaves(), expectedLeaves)
		}
		// Parameter leaf ranges must tile [0, NumLeaves) exactly.
		next := 0
		for _, p := range m.Params() {
			if p.First != next {
				t.Fatalf("trial %d: param %q starts at %d, expected %d", trial, p.Name, p.First, next)
			}
			next += p.Type.LeavesPerValue() * p.Count
		}
		if next != m.NumLeaves() {
			t.Fatalf("trial %d: params cover %d leaves of %d", trial, next, m.NumLeaves())
		}
		// Every leaf must have a scalar type and a tag.
		for i := 0; i < m.NumLeaves(); i++ {
			if !m.LeafType(i).Kind.Scalar() || m.LeafTag(i) == "" {
				t.Fatalf("trial %d: leaf %d malformed", trial, i)
			}
		}
		for i, c := range checks {
			if !c() {
				t.Fatalf("trial %d: value check %d failed", trial, i)
			}
		}
		if m.Signature() != m.Signature() {
			t.Fatalf("trial %d: signature unstable", trial)
		}
	}
}

// TestResizeStress randomly grows and shrinks arrays, checking data in
// surviving positions and index validity afterwards.
func TestResizeStress(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		m := NewMessage("urn:prop", "op")
		head := m.AddInt("head", 1)
		arr := m.AddDoubleArray("v", 10)
		tail := m.AddString("tail", "end")
		model := make([]float64, 10)
		for i := range model {
			v := rng.Float64()
			arr.Set(i, v)
			model[i] = v
		}
		for op := 0; op < 20; op++ {
			n := rng.Intn(30) + 1
			arr.Resize(n)
			if len(model) > n {
				model = model[:n]
			}
			for len(model) < n {
				model = append(model, 0)
			}
			// Mutate a random survivor.
			i := rng.Intn(n)
			v := rng.Float64()
			arr.Set(i, v)
			model[i] = v

			for j := 0; j < n; j++ {
				if arr.Get(j) != model[j] {
					t.Fatalf("trial %d op %d: idx %d = %g, want %g",
						trial, op, j, arr.Get(j), model[j])
				}
			}
			if head.Get() != 1 || tail.Get() != "end" {
				t.Fatalf("trial %d op %d: neighbours corrupted", trial, op)
			}
		}
	}
}

// TestDirtyCountMatchesBits drives every mutator that can touch a dirty
// bit — the four Set kinds (changing and not changing the value),
// TouchLeaf, MarkAllDirty, ClearDirty and a structural Resize — in random
// order and checks after each step that the maintained count is the
// number of set bits, which is what AnyDirty, DirtyCount and the early
// exits built on them rely on.
func TestDirtyCountMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		m := NewMessage("urn:prop", "op")
		m.AddInt("i", 1)
		m.AddBool("b", false)
		m.AddString("s", "a")
		arr := m.AddDoubleArray("v", 1+rng.Intn(12))
		for step := 0; step < 200; step++ {
			i := rng.Intn(m.NumLeaves())
			switch op := rng.Intn(8); op {
			case 0, 1, 2: // Set: half the time the value is unchanged.
				fresh := rng.Intn(2) == 0
				switch m.LeafType(i).Kind {
				case Int:
					v := m.LeafInt(i)
					if fresh {
						v++
					}
					m.SetLeafInt(i, v)
				case Double:
					v := m.LeafDouble(i)
					if fresh {
						v += 0.5
					}
					m.SetLeafDouble(i, v)
				case String:
					v := m.LeafString(i)
					if fresh {
						v += "x"
					}
					m.SetLeafString(i, v)
				case Bool:
					m.SetLeafBool(i, m.LeafBool(i) != fresh)
				}
			case 3, 4:
				m.TouchLeaf(i)
			case 5:
				m.MarkAllDirty()
			case 6:
				m.ClearDirty()
			case 7:
				arr.Resize(1 + rng.Intn(12))
			}
			bits := 0
			for l := 0; l < m.NumLeaves(); l++ {
				if m.Dirty(l) {
					bits++
				}
			}
			if m.DirtyCount() != bits || m.AnyDirty() != (bits > 0) {
				t.Fatalf("trial %d step %d: DirtyCount %d, AnyDirty %v, %d bits set",
					trial, step, m.DirtyCount(), m.AnyDirty(), bits)
			}
		}
	}
}
