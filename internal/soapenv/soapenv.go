// Package soapenv defines the SOAP 1.1 envelope grammar shared by every
// serializer in the repository: the differential engine, the gSOAP-like
// and XSOAP-like baselines, and the server's response writer all emit
// byte-identical framing, so their send times differ only by strategy.
package soapenv

import (
	"strconv"

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

// envelopeHead and bodyStart frame the application namespace in the
// envelope and body opening.
const (
	envelopeHead = prologue +
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + nsEnvelope +
		`" xmlns:SOAP-ENC="` + nsEncoding +
		`" xmlns:xsi="` + nsXSI +
		`" xmlns:xsd="` + nsXSD +
		`" xmlns:ns1="`
	bodyStart = `">` + "\n<SOAP-ENV:Body>\n"
)

// EnvelopeStart returns the envelope and body opening, binding ns1 to the
// application namespace.
func EnvelopeStart(appNS string) string { return envelopeHead + appNS + bodyStart }

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
	return string(appendArrayStart(make([]byte, 0, len(arrayType)+len(name)+len(elem.Name)+25), name, elem, n))
}

const arrayType = ` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="`

func appendArrayStart(b []byte, name string, elem *wire.Type, n int) []byte {
	b = append(b, '<')
	b = append(b, name...)
	b = append(b, arrayType...)
	b = append(b, elem.Name...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, `]">`...)
}

// ArrayEnd closes an array-valued parameter.
func ArrayEnd(name string) string { return "</" + name + ">" }

// ScalarStart opens a scalar parameter element carrying its xsi:type.
func ScalarStart(name string, t *wire.Type) string {
	return `<` + name + ` xsi:type="` + t.Name + `">`
}

// StructStart opens a struct-valued parameter element.
func StructStart(name string, t *wire.Type) string { return ScalarStart(name, t) }

// appendTyped appends the opening tag of a parameter carrying its
// xsi:type, a scalar's or a struct's: ScalarStart, without building the
// string.
func appendTyped(b []byte, name string, t *wire.Type) []byte {
	b = append(b, '<')
	b = append(b, name...)
	b = append(b, ` xsi:type="`...)
	b = append(b, t.Name...)
	return append(b, `">`...)
}

// appendTag appends <tag>, or </tag> when closing.
func appendTag(b []byte, tag string, closing bool) []byte {
	b = append(b, '<')
	if closing {
		b = append(b, '/')
	}
	b = append(b, tag...)
	return append(b, '>')
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
// strategy alone. Doubles print through conv.
func AppendMessage(b []byte, m *wire.Message, conv fastconv.Converter) []byte {
	b = append(b, envelopeHead...)
	b = append(b, m.Namespace()...)
	b = append(b, bodyStart...)
	b = append(b, "<ns1:"...)
	b = append(b, m.Operation()...)
	b = append(b, '>')
	leaf := 0
	for _, p := range m.Params() {
		switch p.Type.Kind {
		case wire.Array:
			b = appendArrayStart(b, p.Name, p.Type.Elem, p.Count)
			for i := 0; i < p.Count; i++ {
				b, leaf = appendValue(b, m, p.Type.Elem, ItemTag, leaf, conv)
			}
		case wire.Struct:
			b = appendTyped(b, p.Name, p.Type)
			for _, f := range p.Type.Fields {
				b, leaf = appendValue(b, m, f.Type, f.Name, leaf, conv)
			}
		default:
			b = appendTyped(b, p.Name, p.Type)
			b, leaf = appendScalar(b, m, p.Type, leaf, conv)
		}
		b = appendTag(b, p.Name, true)
	}
	b = append(b, "</ns1:"...)
	b = append(b, m.Operation()...)
	b = append(b, '>')
	return append(b, EnvelopeEnd...)
}

func appendValue(b []byte, m *wire.Message, t *wire.Type, tag string, leaf int, conv fastconv.Converter) ([]byte, int) {
	b = appendTag(b, tag, false)
	if t.Kind == wire.Struct {
		for _, f := range t.Fields {
			b, leaf = appendValue(b, m, f.Type, f.Name, leaf, conv)
		}
	} else {
		b, leaf = appendScalar(b, m, t, leaf, conv)
	}
	return appendTag(b, tag, true), leaf
}

func appendScalar(b []byte, m *wire.Message, t *wire.Type, leaf int, conv fastconv.Converter) ([]byte, int) {
	switch t.Kind {
	case wire.Int:
		var tmp [xsdlex.MaxIntWidth]byte
		n := fastconv.WriteInt(tmp[:], m.LeafInt(leaf))
		b = append(b, tmp[:n]...)
	case wire.Double:
		var tmp [xsdlex.MaxDoubleWidth]byte
		n := conv.WriteDouble(tmp[:], m.LeafDouble(leaf))
		b = append(b, tmp[:n]...)
	case wire.Bool:
		b = xsdlex.AppendBool(b, m.LeafBool(leaf))
	case wire.String:
		b = xsdlex.EscapeText(b, m.LeafString(leaf))
	}
	return b, leaf + 1
}
