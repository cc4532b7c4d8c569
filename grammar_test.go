package bsoap_test

import (
	"bytes"
	"encoding/xml"
	"io"
	"maps"
	"strings"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/core"
	"bsoap/internal/multiref"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// grammarShapes is one message of each shape the envelope grammar
// frames: scalar parameters of every kind, a string that needs escaping,
// a struct, arrays of each scalar kind and of MIOs, and a nested struct.
// wire has no bare bool array, so bools go in an array of one-field
// structs. No string value repeats, so the multi-ref encoder writes no
// href.
func grammarShapes() map[string]*wire.Message {
	point := wire.StructOf("ns1:Point", wire.Field{Name: "x", Type: wire.TDouble}, wire.Field{Name: "y", Type: wire.TInt})
	flag := wire.StructOf("ns1:Flag", wire.Field{Name: "on", Type: wire.TBool})
	outer := wire.StructOf("ns1:Outer",
		wire.Field{Name: "id", Type: wire.TInt},
		wire.Field{Name: "at", Type: point},
		wire.Field{Name: "name", Type: wire.TString},
		wire.Field{Name: "ok", Type: wire.TBool})

	shapes := map[string]*wire.Message{}
	add := func(name string) *wire.Message {
		m := wire.NewMessage("urn:grammar", name)
		shapes[name] = m
		return m
	}
	m := add("scalars")
	m.AddInt("i", -42)
	m.AddDouble("d", 3.25e-7)
	m.AddString("s", "plain")
	m.AddBool("b", true)
	add("escaped").AddString("s", `a<b & "c" > 'd'`)
	p := add("struct").AddStruct("p", point)
	p.SetDouble(0, 1.5)
	p.SetInt(1, 7)
	m = add("ints")
	ints := m.AddIntArray("v", 7)
	for i := 0; i < 7; i++ {
		ints.Set(i, int32(i*1000-3))
	}
	shapes["doubles"] = workload.NewDoubles(50, workload.FillIntermediate).Msg
	strs := add("strings").AddStringArray("v", 4)
	for i, s := range []string{"x", "<y>", "", "a longer string value"} {
		strs.Set(i, s)
	}
	m = add("bools")
	m.AddStructArray("v", flag, 3)
	m.SetLeafBool(1, true)
	shapes["mios"] = workload.NewMIOs(40, workload.FillIntermediate).Msg
	m = add("nested")
	o := m.AddStruct("o", outer)
	o.SetInt(0, 9)
	o.SetDouble(1, -0.125)
	o.SetInt(2, 3)
	o.SetString(3, "n&m")
	m.SetLeafBool(4, true)
	m.AddInt("tail", 1)
	return shapes
}

// TestWritersShareOneGrammar holds every writer that runs soapenv's
// steps to the from-scratch renderer's bytes, shape by shape: the
// gSOAP-like baseline, a first-time template under exact widths and the
// multi-ref encoder with nothing to deduplicate — and the XSOAP-like
// baseline, whose element tree must frame values the same way.
func TestWritersShareOneGrammar(t *testing.T) {
	for name, m := range grammarShapes() {
		want := new(soapenv.Compiler).AppendMessage(nil, m, 0)
		sink := &recordSink{}
		if _, err := core.NewStub(core.Config{}, sink).Call(m); err != nil {
			t.Fatal(err)
		}
		for writer, got := range map[string][]byte{
			"gSOAP-like":        new(baseline.GSOAPLike).Serialize(m),
			"XSOAP-like":        new(baseline.XSOAPLike).Serialize(m),
			"first-time send":   sink.last(),
			"multi-ref encoder": multiref.NewEncoder().Serialize(m),
		} {
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s:\n got %s\nwant %s", name, writer, got, want)
			}
		}
	}
}

// TestWritersDeclareWhatTheyUse reads every writer's output with
// encoding/xml, for the three workload operations and for a reply with
// one scalar: each must be well-formed and declare exactly the
// namespace prefixes it uses — in element names, in attribute names and
// in the QName values of xsi:type and SOAP-ENC:arrayType.
func TestWritersDeclareWhatTheyUse(t *testing.T) {
	reply := wire.NewMessage(workload.Namespace, "sendDoublesResponse")
	reply.AddInt("n", 4000)
	msgs := map[string]*wire.Message{
		"sendDoubles": workload.NewDoubles(20, workload.FillIntermediate).Msg,
		"sendInts":    workload.NewInts(20, workload.FillIntermediate).Msg,
		"sendMIOs":    workload.NewMIOs(20, workload.FillIntermediate).Msg,
		"reply":       reply,
	}
	for name, m := range msgs {
		sink := &recordSink{}
		if _, err := core.NewStub(core.Config{}, sink).Call(m); err != nil {
			t.Fatal(err)
		}
		for writer, doc := range map[string][]byte{
			"from-scratch":      new(soapenv.Compiler).AppendMessage(nil, m, 0),
			"gSOAP-like":        new(baseline.GSOAPLike).Serialize(m),
			"XSOAP-like":        new(baseline.XSOAPLike).Serialize(m),
			"first-time send":   sink.last(),
			"multi-ref encoder": multiref.NewEncoder().Serialize(m),
		} {
			declared, used, err := prefixesOf(doc)
			if err != nil {
				t.Errorf("%s, %s: not well-formed: %v\n%s", name, writer, err, doc)
				continue
			}
			if !maps.Equal(declared, used) {
				t.Errorf("%s, %s: declares %v, uses %v", name, writer, declared, used)
			}
		}
	}
}

// prefixesOf reads doc with encoding/xml, which refuses a document that
// is not well-formed, and returns the namespace prefixes it declares and
// those it uses.
func prefixesOf(doc []byte) (declared, used map[string]bool, err error) {
	for d := xml.NewDecoder(bytes.NewReader(doc)); ; {
		if _, err := d.Token(); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
	}
	declared, used = map[string]bool{}, map[string]bool{}
	use := func(qname string) {
		if prefix, _, ok := strings.Cut(qname, ":"); ok {
			used[prefix] = true
		}
	}
	for d := xml.NewDecoder(bytes.NewReader(doc)); ; {
		tok, err := d.RawToken()
		if err == io.EOF {
			return declared, used, nil
		}
		if err != nil {
			return nil, nil, err
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if start.Name.Space != "" {
			used[start.Name.Space] = true
		}
		for _, a := range start.Attr {
			switch {
			case a.Name.Space == "xmlns":
				declared[a.Name.Local] = true
				continue
			case a.Name.Space != "":
				used[a.Name.Space] = true
			}
			if a.Name.Local == "type" || a.Name.Local == "arrayType" {
				use(a.Value)
			}
		}
	}
}
