package serverpool

import (
	"bytes"
	"math"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/multiref"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// FuzzUnnamed holds the keeper's unnamed path to the reference decoder.
// Through Runtime.Handle, one replica decodes a seed body, then a fuzzed
// one, then the seed again. An accepted fuzzed body must decode to what
// soapdec.Decode reads from the same bytes, leaf by leaf; and whatever it
// did — hit, miss, fail part-way through its regions — the seed must then
// decode to the seed's values: a failed fast path may cost a base, never
// leave one holding values its bytes do not say. A nonzero tid sends the
// fuzzed body as a delta sync naming that id, on the same connection: a
// named id is acknowledged only if the body decodes, and an id in the
// space the server derives its own from never is.
func FuzzUnnamed(f *testing.F) {
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
	schema := &soapdec.Schema{Namespace: m.Namespace(), Op: m.Operation()}
	for _, p := range m.Params() {
		schema.Params = append(schema.Params, soapdec.ParamSpec{Name: p.Name, Type: p.Type})
	}
	seed := render()

	// Seeds: the body itself; values changed in place, specials included;
	// a leaf that does not lex after others that do; markup changed after
	// every leaf; an entity where the region lexer takes none; a leaf
	// strconv would read and the xsd:double grammar does not.
	// testdata/fuzz/FuzzUnnamed adds the changed body as syncs naming a
	// client's id (named_sync) and the derived id the server holds it
	// under (derived_sync).
	f.Add(seed, uint64(0))
	arr.Set(0, -math.MaxFloat64)
	arr.Set(4, math.NaN())
	ints.Set(1, -2147483648)
	changed := render()
	f.Add(changed, uint64(0))
	bad := append([]byte(nil), changed...)
	bad[bytes.LastIndex(bad, []byte("<item>"))+len("<item>")] = 'x'
	f.Add(bad, uint64(0))
	tail := append([]byte(nil), changed...)
	tail[len(tail)-2] = 'X'
	f.Add(tail, uint64(0))
	f.Add(bytes.Replace(seed, []byte("<item>0</item>    "), []byte("<item>&#48;</item>"), 1), uint64(0))
	f.Add(bytes.Replace(seed, []byte("<item>0.5</item>   "), []byte("<item>0x1p-1</item>"), 1), uint64(0))

	f.Fuzz(func(t *testing.T, second []byte, tid uint64) {
		rt := New(Options{Delta: true})
		var seen *wire.Message
		rt.Register(schema, func() Handler {
			return func(m *wire.Message) (*wire.Message, error) {
				seen = m
				return nil, nil
			}
		})
		if _, err := rt.Handle(1, "", seed); err != nil {
			t.Fatal(err)
		}
		ref := seen
		want, err := soapdec.Decode(seed, rt.lookupSchema, false)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameLeaves(ref, want.Msg); diff != "" {
			t.Fatalf("seed decoded differently from the reference parse at %s", diff)
		}

		seen = nil
		if tid == 0 {
			_, err = rt.Handle(1, "", second)
		} else {
			req := &transport.Request{Method: "POST", ConnID: 1, Body: second,
				DeltaMode: transport.DeltaSync, DeltaTID: tid, DeltaEpoch: 1}
			_, err = rt.HTTPHandler()(req)
			if req.DeltaAck && (tid&derived != 0 || err != nil) {
				t.Fatalf("sync naming %#x acknowledged (decode error %v)", tid, err)
			}
		}
		if err == nil && seen != nil {
			body := second
			if multiref.HasRefs(body) {
				body, _ = multiref.Inline(body)
			}
			ref, rerr := soapdec.Decode(body, rt.lookupSchema, false)
			if rerr != nil {
				t.Fatalf("decoded what the reference parse rejects: %v", rerr)
			}
			if diff := sameLeaves(seen, ref.Msg); diff != "" {
				t.Fatalf("decode differs from the reference parse at %s", diff)
			}
		}

		seen = nil
		if _, err := rt.Handle(1, "", seed); err != nil || seen == nil {
			t.Fatalf("seed body after the fuzzed one: %v", err)
		}
		if diff := sameLeaves(seen, want.Msg); diff != "" {
			t.Fatalf("seed body after the fuzzed one differs at %s", diff)
		}
	})
}

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
