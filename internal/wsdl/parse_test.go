package wsdl

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bsoap/internal/transport"
)

// TestParseRefusesMalformedXML pins encoding/xml's well-formedness: a
// raw '<' in an attribute value is refused.
func TestParseRefusesMalformedXML(t *testing.T) {
	doc := `<definitions name="X" targetNamespace="urn:<x"></definitions>`
	if svc, err := Parse([]byte(doc)); err == nil {
		t.Fatalf("raw '<' in an attribute value parsed: %+v", svc)
	}
}

// TestParseAnyPrefix pins that elements match by local name: the WSDL
// and XSD namespaces may be bound to any prefix, or be the default.
func TestParseAnyPrefix(t *testing.T) {
	doc := `<w:definitions xmlns:w="http://schemas.xmlsoap.org/wsdl/" xmlns:s="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:p">
  <w:types><s:schema><s:complexType name="P"><s:sequence>
    <s:element name="a" type="s:int"/><s:element name="b" type="s:string"/>
  </s:sequence></s:complexType></s:schema></w:types>
  <w:message name="oRequest"><w:part name="p" type="tns:P"/></w:message>
  <w:portType><w:operation name="o"/></w:portType>
  <w:service name="Svc"><w:port><x:address xmlns:x="urn:any" location="http://e/"/></w:port></w:service>
</w:definitions>`
	svc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name != "Svc" || svc.Endpoint != "http://e/" || len(svc.Operations) != 1 {
		t.Fatalf("parsed %+v", svc)
	}
	p := svc.Operations[0].Params[0].Type
	if len(p.Fields) != 2 || p.Fields[1].Name != "b" {
		t.Fatalf("struct P parsed as %+v", p)
	}
}

// FuzzParse: Parse never panics, and what it accepts survives a round
// trip through Generate with the same schema per operation.
func FuzzParse(f *testing.F) {
	goldens, _ := filepath.Glob(filepath.Join("testdata", "*.wsdl"))
	for _, g := range goldens {
		doc, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		svc, err := Parse(doc)
		if err != nil {
			return
		}
		out, err := Generate(svc)
		if err != nil {
			return
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Generate's output does not parse: %v\n%s", err, out)
		}
		if len(back.Operations) != len(svc.Operations) {
			t.Fatalf("%d operations, then %d", len(svc.Operations), len(back.Operations))
		}
		for i, op := range svc.Operations {
			if !EqualSchemas(back.Operations[i], op) {
				t.Fatalf("operation %q changed in the round trip\n%s", op.Op, out)
			}
		}
	})
}

func TestFetch(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("testdata", "calc.wsdl"))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(body []byte) *transport.Server {
		srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
			Respond: true,
			Handler: func(req *transport.Request) ([]byte, error) {
				if req.Method != "GET" || req.Target != "/?wsdl" {
					t.Errorf("request %s %s", req.Method, req.Target)
				}
				if body == nil {
					return nil, errors.New("no description")
				}
				return body, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	svc, err := Fetch(serve(doc).Addr())
	if err != nil || svc.Name != "Calc" || len(svc.Operations) != 1 {
		t.Fatalf("Fetch: %+v, %v", svc, err)
	}
	// A status other than 200 is an error, not a document.
	if _, err := Fetch(serve(nil).Addr()); err == nil {
		t.Fatal("fetch of a 500 succeeded")
	}
	// Unreachable address errors.
	if _, err := Fetch("127.0.0.1:1"); err == nil {
		t.Fatal("fetch to closed port succeeded")
	}
	// A peer that accepts and never answers fails the fetch at its
	// deadline instead of hanging it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		silent <- c // held open, never written to
	}()
	defer func() {
		if c := <-silent; c != nil {
			c.Close()
		}
	}()
	start := time.Now()
	_, err = fetch(ln.Addr().String(), 200*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("fetch from a silent peer: %v, want a timeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fetch from a silent peer took %v against a 200ms deadline", d)
	}
}
