// Package soapenv defines the SOAP 1.1 envelope grammar shared by every
// serializer in the repository: the differential engine, the gSOAP-like
// and XSOAP-like baselines, and the server's response writer all emit
// byte-identical framing, so their send times differ only by strategy.
package soapenv

import (
	"fmt"

	"bsoap/internal/fastconv"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Namespace URIs of SOAP 1.1 and XML Schema.
const (
	nsEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	nsEncoding = "http://schemas.xmlsoap.org/soap/encoding/"
	nsXSI      = "http://www.w3.org/2001/XMLSchema-instance"
	nsXSD      = "http://www.w3.org/2001/XMLSchema"
)

// prologue is the XML declaration that starts every message.
const prologue = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// EnvelopeStart returns the envelope and body opening, binding ns1 to the
// application namespace.
func EnvelopeStart(appNS string) string {
	return prologue +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + nsEnvelope +
		`" xmlns:SOAP-ENC="` + nsEncoding +
		`" xmlns:xsi="` + nsXSI +
		`" xmlns:xsd="` + nsXSD +
		`" xmlns:ns1="` + appNS + `">` + "\n<SOAP-ENV:Body>\n"
}

// EnvelopeEnd closes the body and envelope.
const EnvelopeEnd = "\n</SOAP-ENV:Body>\n</SOAP-ENV:Envelope>\n"

// OperationStart opens the RPC wrapper element for an operation.
func OperationStart(op string) string { return "<ns1:" + op + ">" }

// OperationEnd closes the RPC wrapper element.
func OperationEnd(op string) string { return "</ns1:" + op + ">" }

// ArrayStart opens an array-valued parameter with its SOAP-ENC arrayType
// attribute, e.g. <values xsi:type="SOAP-ENC:Array"
// SOAP-ENC:arrayType="xsd:double[100]">.
func ArrayStart(name string, elem *wire.Type, n int) string {
	return fmt.Sprintf(`<%s xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="%s[%d]">`,
		name, elem.Name, n)
}

// ArrayEnd closes an array-valued parameter.
func ArrayEnd(name string) string { return "</" + name + ">" }

// ScalarStart opens a scalar parameter element carrying its xsi:type.
func ScalarStart(name string, t *wire.Type) string {
	return `<` + name + ` xsi:type="` + t.Name + `">`
}

// StructStart opens a struct-valued parameter element.
func StructStart(name string, t *wire.Type) string {
	return `<` + name + ` xsi:type="` + t.Name + `">`
}

// OpenTag returns <tag>; array items and struct fields use bare tags (the
// enclosing arrayType/xsi:type already fixes their types, and lean item
// framing matches the per-element overhead the paper measures).
func OpenTag(tag string) string { return "<" + tag + ">" }

// CloseTag returns </tag>.
func CloseTag(tag string) string { return "</" + tag + ">" }

// ItemTag is the element name of array items.
const ItemTag = "item"

// AppendMessage appends m's complete envelope to b in one pass — no
// template, no DUT table — and returns the extended slice. It is the
// repository's one from-scratch renderer: the gSOAP-like baseline and the
// engine's diff-off mode ("bSOAP Full Serialization") both call it, so
// the measured gap between them and differential serialization is
// strategy alone.
func AppendMessage(b []byte, m *wire.Message) []byte {
	b = append(b, EnvelopeStart(m.Namespace())...)
	b = append(b, OperationStart(m.Operation())...)
	leaf := 0
	for _, p := range m.Params() {
		switch p.Type.Kind {
		case wire.Array:
			b = append(b, ArrayStart(p.Name, p.Type.Elem, p.Count)...)
			for i := 0; i < p.Count; i++ {
				b, leaf = appendValue(b, m, p.Type.Elem, ItemTag, leaf)
			}
			b = append(b, ArrayEnd(p.Name)...)
		case wire.Struct:
			b = append(b, StructStart(p.Name, p.Type)...)
			for _, f := range p.Type.Fields {
				b, leaf = appendValue(b, m, f.Type, f.Name, leaf)
			}
			b = append(b, CloseTag(p.Name)...)
		default:
			b = append(b, ScalarStart(p.Name, p.Type)...)
			b, leaf = appendScalar(b, m, p.Type, leaf)
			b = append(b, CloseTag(p.Name)...)
		}
	}
	b = append(b, OperationEnd(m.Operation())...)
	return append(b, EnvelopeEnd...)
}

func appendValue(b []byte, m *wire.Message, t *wire.Type, tag string, leaf int) ([]byte, int) {
	b = append(b, '<')
	b = append(b, tag...)
	b = append(b, '>')
	if t.Kind == wire.Struct {
		for _, f := range t.Fields {
			b, leaf = appendValue(b, m, f.Type, f.Name, leaf)
		}
	} else {
		b, leaf = appendScalar(b, m, t, leaf)
	}
	b = append(b, '<', '/')
	b = append(b, tag...)
	b = append(b, '>')
	return b, leaf
}

func appendScalar(b []byte, m *wire.Message, t *wire.Type, leaf int) ([]byte, int) {
	switch t.Kind {
	case wire.Int:
		var tmp [xsdlex.MaxIntWidth]byte
		n := fastconv.WriteInt(tmp[:], m.LeafInt(leaf))
		b = append(b, tmp[:n]...)
	case wire.Double:
		var tmp [xsdlex.MaxDoubleWidth]byte
		n := fastconv.WriteDouble(tmp[:], m.LeafDouble(leaf))
		b = append(b, tmp[:n]...)
	case wire.Bool:
		b = xsdlex.AppendBool(b, m.LeafBool(leaf))
	case wire.String:
		b = xsdlex.EscapeText(b, m.LeafString(leaf))
	}
	return b, leaf + 1
}
