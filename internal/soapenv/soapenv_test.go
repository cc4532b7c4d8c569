package soapenv

import (
	"math"
	"strings"
	"testing"

	"bsoap/internal/fastconv"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
)

func TestEnvelopeRoundTrips(t *testing.T) {
	doc := EnvelopeStart("urn:app") + OperationStart("op") +
		ScalarStart("v", wire.TInt) + "42" + CloseTag("v") +
		OperationEnd("op") + EnvelopeEnd
	p := xmlparse.NewParser([]byte(doc))
	if _, err := p.ExpectStart("Envelope"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExpectStart("Body"); err != nil {
		t.Fatal(err)
	}
	tok, err := p.ExpectStart("op")
	if err != nil || string(tok.Name) != "ns1:op" {
		t.Fatalf("op: %+v, %v", tok, err)
	}
	if _, err := p.ExpectStart("v"); err != nil {
		t.Fatal(err)
	}
	text, err := p.Text()
	if err != nil || string(text) != "42" {
		t.Fatalf("text %q, %v", text, err)
	}
}

func TestEnvelopeDeclaresAllNamespaces(t *testing.T) {
	env := EnvelopeStart("urn:app")
	for _, ns := range []string{nsEnvelope, nsEncoding, nsXSI, nsXSD, "urn:app"} {
		if !strings.Contains(env, ns) {
			t.Errorf("envelope missing namespace %q", ns)
		}
	}
	if !strings.HasPrefix(env, prologue) {
		t.Error("envelope missing XML declaration")
	}
}

func TestArrayStart(t *testing.T) {
	got := ArrayStart("vals", wire.TDouble, 100)
	want := `<vals xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[100]">`
	if got != want {
		t.Fatalf("ArrayStart = %q", got)
	}
	if ArrayEnd("vals") != "</vals>" {
		t.Fatal("ArrayEnd wrong")
	}
}

func TestTagHelpers(t *testing.T) {
	if OpenTag("x") != "<x>" || CloseTag("x") != "</x>" {
		t.Fatal("tag helpers wrong")
	}
	if OperationStart("f") != "<ns1:f>" || OperationEnd("f") != "</ns1:f>" {
		t.Fatal("operation helpers wrong")
	}
}

// TestAppendMessageFraming renders one parameter of each kind and checks
// the document against the grammar's own string helpers, with doubles
// printed the same by both converters.
func TestAppendMessageFraming(t *testing.T) {
	m := wire.NewMessage("urn:app", "op")
	m.AddInt("n", -7)
	m.AddDouble("x", 0.1)
	m.AddString("s", "a<b")
	arr := m.AddDoubleArray("vals", 2)
	arr.Set(0, 1.5)
	arr.Set(1, math.Inf(-1))
	want := EnvelopeStart("urn:app") + OperationStart("op") +
		ScalarStart("n", wire.TInt) + "-7" + CloseTag("n") +
		ScalarStart("x", wire.TDouble) + "0.1" + CloseTag("x") +
		ScalarStart("s", wire.TString) + "a&lt;b" + CloseTag("s") +
		ArrayStart("vals", wire.TDouble, 2) + "<item>1.5</item><item>-INF</item>" + ArrayEnd("vals") +
		OperationEnd("op") + EnvelopeEnd
	for _, conv := range []fastconv.Converter{0, fastconv.Dragon} {
		if got := string(AppendMessage(nil, m, conv)); got != want {
			t.Errorf("converter %d:\n got %s\nwant %s", conv, got, want)
		}
	}
}
