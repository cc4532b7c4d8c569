package soapenv

import (
	"strings"
	"testing"

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
	for _, ns := range []string{NSEnvelope, NSEncoding, NSXSI, NSXSD, "urn:app"} {
		if !strings.Contains(env, ns) {
			t.Errorf("envelope missing namespace %q", ns)
		}
	}
	if !strings.HasPrefix(env, Prologue) {
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
	if ResponseName("f") != "fResponse" {
		t.Fatal("ResponseName wrong")
	}
	if ScalarTypeName(wire.TDouble) != "xsd:double" {
		t.Fatal("ScalarTypeName wrong")
	}
}

func TestFaultParses(t *testing.T) {
	doc := Fault("SOAP-ENV:Server", "exploded")
	p := xmlparse.NewParser([]byte(doc))
	sawFault := false
	for {
		tok, err := p.Next()
		if err != nil {
			t.Fatalf("fault does not parse: %v\n%s", err, doc)
		}
		if tok.Kind == xmlparse.EOF {
			break
		}
		if tok.Kind == xmlparse.StartElement && string(xmlparse.Local(tok.Name)) == "Fault" {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no Fault element")
	}
	if !strings.Contains(doc, "exploded") {
		t.Fatal("fault message missing")
	}
}
