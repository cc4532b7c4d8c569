package diffdeser

import (
	"bytes"
	"math"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// sameLeaves reports the first leaf at which got differs from want (NaN
// equal to NaN), or "" when the two messages hold the same values.
func sameLeaves(got, want *wire.Message) string {
	if got.Operation() != want.Operation() || got.NumLeaves() != want.NumLeaves() {
		return "operation or leaf count"
	}
	for i := 0; i < want.NumLeaves(); i++ {
		var same bool
		switch want.LeafType(i).Kind {
		case wire.Int:
			same = got.LeafInt(i) == want.LeafInt(i)
		case wire.Double:
			g, w := got.LeafDouble(i), want.LeafDouble(i)
			same = g == w || (math.IsNaN(g) && math.IsNaN(w))
		case wire.String:
			same = got.LeafString(i) == want.LeafString(i)
		case wire.Bool:
			same = got.LeafBool(i) == want.LeafBool(i)
		}
		if !same || got.LeafType(i).Kind != want.LeafType(i).Kind {
			return "leaf " + want.LeafTag(i)
		}
	}
	return ""
}

// FuzzDiffDeser warms a deserializer with a seed body and feeds it a
// fuzzer-made second one. The oracle is the from-scratch parse: a
// Decode that succeeds, by whichever path, must hold what
// soapdec.Decode reads from the same bytes. And whatever the second
// body did — hit, miss, fail part-way through its regions — the seed
// body must afterwards still decode to the seed's values: a failed fast
// path may cost a template, never leave one holding values its bytes do
// not say.
func FuzzDiffDeser(f *testing.F) {
	m := wire.NewMessage("urn:dd", "mixed")
	m.AddString("who", "a&b <c>")
	m.AddBool("on", true)
	ints := m.AddIntArray("k", 3)
	arr := m.AddDoubleArray("v", 6)
	for i := 0; i < 6; i++ {
		arr.Set(i, float64(i)+0.5)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{
		Width: core.WidthPolicy{Double: core.MaxWidth, Int: core.MaxWidth},
	}, sink)
	render := func() []byte {
		if _, err := stub.Call(m); err != nil {
			f.Fatal(err)
		}
		return append([]byte(nil), sink.data...)
	}
	seed := render()
	lookup := testSchema(m)
	ref, err := soapdec.Decode(seed, lookup, false)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: the body itself; values changed in place, specials included;
	// a leaf that does not lex after others that do; markup changed after
	// every leaf; an entity where the region lexer takes none; a leaf
	// strconv would read and the xsd:double grammar does not.
	f.Add(seed)
	arr.Set(0, -math.MaxFloat64)
	arr.Set(4, math.NaN())
	ints.Set(1, -2147483648)
	changed := render()
	f.Add(changed)
	bad := append([]byte(nil), changed...)
	bad[bytes.LastIndex(bad, []byte("<item>"))+len("<item>")] = 'x'
	f.Add(bad)
	tail := append([]byte(nil), changed...)
	tail[len(tail)-2] = 'X'
	f.Add(tail)
	f.Add(bytes.Replace(seed, []byte("<item>0</item>    "), []byte("<item>&#48;</item>"), 1))
	f.Add(bytes.Replace(seed, []byte("<item>0.5</item>   "), []byte("<item>0x1p-1</item>"), 1))

	f.Fuzz(func(t *testing.T, second []byte) {
		d := New(lookup)
		if _, _, err := d.Decode("k", seed); err != nil {
			t.Fatal(err)
		}
		got, info, err := d.Decode("k", second)
		if err == nil {
			want, rerr := soapdec.Decode(second, lookup, false)
			if rerr != nil {
				t.Fatalf("decoded (%+v) what the reference parse rejects: %v", info, rerr)
			}
			if diff := sameLeaves(got, want.Msg); diff != "" {
				t.Fatalf("decode (%+v) differs from the reference parse at %s", info, diff)
			}
		}
		got, info, err = d.Decode("k", seed)
		if err != nil {
			t.Fatalf("seed body after the fuzzed one: %v", err)
		}
		if diff := sameLeaves(got, ref.Msg); diff != "" {
			t.Fatalf("seed body after the fuzzed one (%+v) differs at %s", info, diff)
		}
	})
}
