package soapdec

import (
	"math"
	"testing"

	"bsoap/internal/wire"
)

// fuzzLookup resolves the two operations the fuzz seeds are written
// against: between them every parameter shape Decode knows.
func fuzzLookup() Lookup {
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	outer := wire.StructOf("ns1:Outer",
		wire.Field{Name: "tag", Type: wire.TString},
		wire.Field{Name: "in", Type: mio},
		wire.Field{Name: "ok", Type: wire.TBool},
	)
	schemas := map[string]*Schema{
		"op": {Namespace: "urn:f", Op: "op", Params: []ParamSpec{
			{Name: "v", Type: wire.TInt},
			{Name: "a", Type: wire.ArrayOf(wire.TDouble)},
			{Name: "m", Type: mio},
		}},
		"op2": {Namespace: "urn:f", Op: "op2", Params: []ParamSpec{
			{Name: "s", Type: wire.TString},
			{Name: "ms", Type: wire.ArrayOf(mio)},
			{Name: "o", Type: outer},
			{Name: "ss", Type: wire.ArrayOf(wire.TString)},
		}},
	}
	return func(op string) (*Schema, bool) {
		s, ok := schemas[op]
		return s, ok
	}
}

// requireSameAsReference decodes data with Decode — or, given a Scratch,
// with its Decode, which records no ranges — and with the reference
// decoder (reference_test.go) and fails unless they agree: both refuse
// it, or both accept it with the same structure, the same value and type
// in every leaf, and the same ranges.
func requireSameAsReference(t *testing.T, data []byte, lookup Lookup, record bool, s *Scratch) {
	t.Helper()
	var got *Result
	var err error
	if s == nil {
		got, err = Decode(data, lookup, record)
	} else {
		var msg *wire.Message
		if msg, err = s.Decode(data, lookup); err == nil {
			got = &Result{Msg: msg}
		}
	}
	want, wantErr := refDecode(data, lookup, record)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("record=%v: Decode error %v, reference error %v", record, err, wantErr)
	}
	if err != nil {
		return
	}
	g, w := got.Msg, want.Msg
	if g.Signature() != w.Signature() || g.NumLeaves() != w.NumLeaves() {
		t.Fatalf("record=%v: decoded %q (%d leaves), reference %q (%d leaves)",
			record, g.Signature(), g.NumLeaves(), w.Signature(), w.NumLeaves())
	}
	for i := 0; i < w.NumLeaves(); i++ {
		if g.LeafType(i) != w.LeafType(i) || g.LeafTag(i) != w.LeafTag(i) {
			t.Fatalf("leaf %d: %s <%s>, reference %s <%s>", i,
				g.LeafType(i).Name, g.LeafTag(i), w.LeafType(i).Name, w.LeafTag(i))
		}
		same := true
		switch w.LeafType(i).Kind {
		case wire.Int:
			same = g.LeafInt(i) == w.LeafInt(i)
		case wire.Double:
			same = math.Float64bits(g.LeafDouble(i)) == math.Float64bits(w.LeafDouble(i))
		case wire.String:
			same = g.LeafString(i) == w.LeafString(i)
		case wire.Bool:
			same = g.LeafBool(i) == w.LeafBool(i)
		}
		if !same {
			t.Fatalf("record=%v: leaf %d differs from the reference", record, i)
		}
		if g.Dirty(i) {
			t.Fatalf("record=%v: leaf %d left dirty", record, i)
		}
	}
	if len(got.Ranges) != len(want.Ranges) {
		t.Fatalf("record=%v: %d ranges, reference %d", record, len(got.Ranges), len(want.Ranges))
	}
	for i, r := range want.Ranges {
		if got.Ranges[i] != r {
			t.Fatalf("range %d: %+v, reference %+v", i, got.Ranges[i], r)
		}
	}
	if record && len(got.Ranges) != g.NumLeaves() {
		t.Fatalf("ranges %d vs leaves %d", len(got.Ranges), g.NumLeaves())
	}
}

// FuzzDecode asserts schema-driven envelope decoding never panics on
// arbitrary input and reads it exactly as the reference decoder does,
// with and without range recording.
func FuzzDecode(f *testing.F) {
	env := func(op, params string) string {
		return `<E:Envelope><E:Body><ns1:` + op + `>` + params + `</ns1:` + op + `></E:Body></E:Envelope>`
	}
	seeds := []string{
		"",
		`<E:Envelope><E:Body><ns1:op><v>1</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[2]"><item>1</item><item>2</item></a></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Header><h/></E:Header><E:Body><ns1:op><v>1</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><a SOAP-ENC:arrayType="xsd:double[99999]"></a></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><v>not-a-number</v></ns1:op></E:Body></E:Envelope>`,
		`<E:Envelope><E:Body><ns1:op><v>1</v><a SOAP-ENC:arrayType="xsd:double[2]"><item>0x1p-2</item><item>.5e1</item></a></ns1:op></E:Body></E:Envelope>`,
		// The forms where a tokenizer of views can differ from one of
		// copies. A complete, plain body first.
		env("op", `<v>7</v><a e:arrayType="xsd:double[2]"><item>1.5</item><item>-2E3</item></a><m><x>3</x><value>4.25</value></m>`),
		// An entity inside a number; a comment and a CDATA section inside
		// a leaf.
		env("op", `<v>1&#48;</v><a e:arrayType="xsd:double[2]"><item>1<!-- c -->5</item><item><![CDATA[2]]>5</item></a><m><x>&#x33;</x><value>4&#46;25</value></m>`),
		// <item/> (no double, so refused — by both), then </item >, an
		// attribute on an item and padding after close tags in a body
		// that is accepted.
		env("op", `<v>7</v><a e:arrayType="xsd:double[1]"><item/></a><m><x>3</x><value>4</value></m>`),
		env("op", `<v>7</v>  <a e:arrayType="xsd:double[2]"><item >1</item >   <item id='i&amp;1'>2</item></a><m><x>3</x ><value>4</value>  </m>`),
		// Prefixed and doubly-prefixed names; white space and a
		// processing instruction between elements.
		env("op", `<p:v>7</p:v> <?pi x?>`+"\n\t"+`<p:q:a q:r:arrayType="xsd:double[1]"> <p:item>1</p:item> </p:q:a><!-- between --><m> <p:x>3</p:x> <q:r:value>4</q:r:value> </m>`),
		// Strings: entities (resolved once, not twice), CDATA (verbatim),
		// empty and self-closing; struct arrays and a nested struct.
		env("op2", `<s>a&amp;lt;b</s><ms e:arrayType="ns1:MIO[2]"><item><x>1</x><value>2</value></item><item><x>-1</x><value>NaN</value></item></ms>`+
			`<o><tag><![CDATA[&amp;<raw>]]>&lt;</tag><in><x>5</x><value>INF</value></in><ok> true </ok></o>`+
			`<ss e:arrayType="xsd:string[3]"><item/><item></item><item> x </item></ss>`),
		// Counts the body cannot hold, for a scalar and a struct element.
		env("op2", `<s/><ms e:arrayType="ns1:MIO[6]"><item><x>1</x><value>2</value></item></ms>`),
		env("op2", `<s/><ms e:arrayType="ns1:MIO[0]"></ms><o><tag/><in><x>1</x><value>1</value></in><ok>0</ok></o><ss e:arrayType="xsd:string[9]"><item/></ss>`),
	}
	// A Scratch decodes into what the decodes before it left: a message of
	// the other operation with strings in it, then one of this operation
	// abandoned part-way by an error.
	strs, bad := []byte(seeds[len(seeds)-3]), []byte(seeds[5])
	// One seed per form the tokenizer's fast reads decline, each in a
	// body that is otherwise plain: white space in an open and in a
	// close tag, an empty element, a prefix, an attribute on an item, an
	// entity, a comment before a tag, a child inside a scalar and a
	// mismatched close.
	plain := func(v, item, m string) string {
		return env("op", v+`<a e:arrayType="xsd:double[1]">`+item+`</a><m>`+m+`</m>`)
	}
	const v, item, m = `<v>7</v>`, `<item>1</item>`, `<x>3</x><value>4</value>`
	seeds = append(seeds,
		plain(v, `<item >1</item>`, m),
		plain(v, item, `<x>3</x ><value>4</value>`),
		plain(v, item, `<x/><value>4</value>`),
		plain(v, item, `<p:x>3</p:x><value>4</value>`),
		plain(v, `<item id="1">1</item>`, m),
		plain(`<v>1&#48;</v>`, item, m),
		plain(`<!-- c --><v>7</v>`, item, m),
		plain(`<v><b>7</b></v>`, item, m),
		plain(v, item, `<x>1</y><value>4</value>`),
	)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lookup := fuzzLookup()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, record := range []bool{false, true} {
			requireSameAsReference(t, data, lookup, record, nil)
		}
		var s Scratch
		if _, err := s.Decode(strs, lookup); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
		if _, err := s.Decode(bad, lookup); err == nil {
			t.Fatal("warm-up: a bad value decoded")
		}
		requireSameAsReference(t, data, lookup, false, &s)
	})
}
