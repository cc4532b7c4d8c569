// Package soapenv owns the SOAP 1.1 envelope grammar: which tags go
// around which value. It is the one place that walks a message's
// parameters and types into markup. A Compiler turns the operation into
// its framing and each parameter into Steps — markup to copy and, for a
// scalar leaf, its type and closing tag — and every writer runs those
// steps with its own leaf writer:
//
//   - Compiler.AppendMessage, the one from-scratch renderer (the
//     gSOAP-like baseline and the engine's from-scratch send), appends the
//     values contiguously;
//   - the engine's template build (internal/core) reserves a stuffed
//     field per leaf and records its DUT entry;
//   - chunk overlaying (internal/core) lays out its message head, item
//     frame and tail;
//   - the multi-ref encoder (internal/multiref) writes an href element
//     in place of a repeated string leaf.
//
// So all of them, and the server's response writer (the engine again),
// emit byte-identical framing, and their send times differ only by
// strategy. The XSOAP-like baseline is the one writer that builds its
// own element tree — an allocated tree is the cost it emulates — and it
// takes the envelope and the item tag from here.
package soapenv

import (
	"slices"
	"strings"

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

// The envelope carries no XML declaration (UTF-8 XML 1.0 is what a
// document without one is) and no white space between its elements. It
// declares SOAP-ENV and ns1, which every message uses, and each of
// SOAP-ENC, xsi and xsd only when a parameter uses it (declares): bytes
// that carry nothing are link time on every call, requests and
// responses alike.
const (
	envelopeOpen = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + nsEnvelope + `"`
	declEncoding = ` xmlns:SOAP-ENC="` + nsEncoding + `"`
	declXSI      = ` xmlns:xsi="` + nsXSI + `"`
	declXSD      = ` xmlns:xsd="` + nsXSD + `"`
	declApp      = ` xmlns:ns1="`
	bodyStart    = `"><SOAP-ENV:Body>`
	// maxEnvelopeStart is the longest envelope opening, less the
	// application namespace.
	maxEnvelopeStart = len(envelopeOpen) + len(declEncoding) + len(declXSI) + len(declXSD) + len(declApp) + len(bodyStart)
)

// declares reports which of the optional prefixes m's parameters write:
// xsi in every parameter's xsi:type, SOAP-ENC in an array's type and
// arrayType, and xsd where a parameter's type, or an array's element
// type, is an XML Schema one. Items and struct fields carry bare tags,
// and a struct holds no array (wire.StructOf), so nothing deeper names
// a prefix.
func declares(m *wire.Message) (xsi, enc, xsd bool) {
	params := m.Params()
	for i := range params {
		t := params[i].Type
		xsi = true
		if t.Kind == wire.Array {
			enc, t = true, t.Elem
		}
		xsd = xsd || strings.HasPrefix(t.Name, "xsd:")
	}
	return xsi, enc, xsd
}

// appendEnvelopeStart appends m's envelope and body opening, binding ns1
// to m's namespace.
func appendEnvelopeStart(b []byte, m *wire.Message) []byte {
	xsi, enc, xsd := declares(m)
	b = append(b, envelopeOpen...)
	if enc {
		b = append(b, declEncoding...)
	}
	if xsi {
		b = append(b, declXSI...)
	}
	if xsd {
		b = append(b, declXSD...)
	}
	b = append(b, declApp...)
	b = append(b, m.Namespace()...)
	return append(b, bodyStart...)
}

// EnvelopeStart returns m's envelope and body opening, binding ns1 to
// m's namespace, for a writer that builds its own operation element.
func EnvelopeStart(m *wire.Message) string { return string(appendEnvelopeStart(nil, m)) }

// EnvelopeEnd closes the body and envelope.
const EnvelopeEnd = "</SOAP-ENV:Body></SOAP-ENV:Envelope>"

// ItemTag is the element name of array items. Items and struct fields
// carry bare tags: the enclosing arrayType or xsi:type already fixes
// their types, and lean item framing matches the per-element overhead
// the paper measures.
const ItemTag = "item"

// Step is one step of writing a value: Lit is markup copied as it
// stands; when Leaf is set, one scalar leaf of that type follows, its
// value and then Close. A leaf's Lit is exactly its opening tag and
// Close its closing tag; a markup-only step opens or closes a struct.
type Step struct {
	Lit   []byte
	Leaf  *wire.Type
	Close []byte
}

// Compiler compiles a message's framing and parameters into markup and
// Steps. It reuses its buffers: what Operation returns is valid until
// its next call, and what Param returns until its next call. The zero
// value is ready to use; a writer keeps one beside its other scratch, so
// that compiling costs no allocation once the buffers have grown.
type Compiler struct {
	op    []byte // the operation framing
	mk    []byte // the markup of the parameter compiled last
	steps []Step
}

// Operation compiles m's operation framing. open is the envelope and
// body opening (appendEnvelopeStart) and the operation's open tag.
// close is the operation's close tag followed by EnvelopeEnd; a writer
// that places independent elements beside the operation (multi-ref
// values) writes them before that EnvelopeEnd.
func (c *Compiler) Operation(m *wire.Message) (open, close []byte) {
	op := m.Operation()
	b := slices.Grow(c.op[:0], maxEnvelopeStart+len(m.Namespace())+len("<ns1:></ns1:>")+2*len(op)+len(EnvelopeEnd))
	b = appendEnvelopeStart(b, m)
	b = append(b, "<ns1:"...)
	b = append(b, op...)
	b = append(b, '>')
	n := len(b)
	b = append(b, "</ns1:"...)
	b = append(b, op...)
	b = append(b, '>')
	b = append(b, EnvelopeEnd...)
	c.op = b
	return b[:n:n], b[n:]
}

// Param compiles parameter p: open, then steps once for each of its
// count values (an array's length, else 1), then close. An array opens
// with its SOAP-ENC arrayType, e.g. <values xsi:type="SOAP-ENC:Array"
// SOAP-ENC:arrayType="xsd:double[100]">, and repeats one item's steps;
// a struct opens with its xsi:type; a scalar is one leaf step whose
// opening tag carries the xsi:type, with no open or close of its own.
func (c *Compiler) Param(p *wire.Param) (open []byte, steps []Step, close []byte, count int) {
	// Size the buffers for p up front: a compiler used once, as a
	// template build's is, then allocates each buffer once instead of
	// doubling into it.
	leaves := p.Type.LeavesPerValue()
	mk, steps, count := slices.Grow(c.mk[:0], 96+32*leaves), slices.Grow(c.steps[:0], 2+2*leaves), 1
	switch p.Type.Kind {
	case wire.Array:
		mk = appendArrayStart(mk, p.Name, p.Type.Elem, p.Count)
		open = mk
		steps, mk = compileValue(steps, mk, p.Type.Elem, ItemTag)
		mk, count = appendTag(mk, p.Name, true), p.Count
	case wire.Struct:
		mk = appendTyped(mk, p.Name, p.Type)
		open = mk
		for _, f := range p.Type.Fields {
			steps, mk = compileValue(steps, mk, f.Type, f.Name)
		}
		mk = appendTag(mk, p.Name, true)
	default:
		mk = appendTyped(mk, p.Name, p.Type)
		n := len(mk)
		mk = appendTag(mk, p.Name, true)
		steps = append(steps, Step{Lit: mk[:n], Leaf: p.Type, Close: mk[n:]})
	}
	// The markup was appended in document order — open, each step's Lit
	// and Close, close — but appending may have moved it: re-slice every
	// piece, by its length, from where it now lies.
	off := len(open)
	open = mk[:off:off]
	for i := range steps {
		st := &steps[i]
		st.Lit, off = mk[off:off+len(st.Lit):off+len(st.Lit)], off+len(st.Lit)
		st.Close, off = mk[off:off+len(st.Close):off+len(st.Close)], off+len(st.Close)
	}
	c.mk, c.steps = mk, steps
	return open, steps, mk[off:], count
}

// compileValue appends the steps that write one value of type t wrapped
// in <tag>…</tag>, and their markup.
func compileValue(steps []Step, mk []byte, t *wire.Type, tag string) ([]Step, []byte) {
	n := len(mk)
	mk = appendTag(mk, tag, false)
	if t.Kind != wire.Struct {
		lit := len(mk)
		mk = appendTag(mk, tag, true)
		return append(steps, Step{Lit: mk[n:lit], Leaf: t, Close: mk[lit:]}), mk
	}
	steps = append(steps, Step{Lit: mk[n:]})
	for _, f := range t.Fields {
		steps, mk = compileValue(steps, mk, f.Type, f.Name)
	}
	n = len(mk)
	mk = appendTag(mk, tag, true)
	return append(steps, Step{Lit: mk[n:]}), mk
}

const arrayType = ` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="`

func appendArrayStart(b []byte, name string, elem *wire.Type, n int) []byte {
	b = append(b, '<')
	b = append(b, name...)
	b = append(b, arrayType...)
	b = append(b, elem.Name...)
	b = append(b, '[')
	b = xsdlex.AppendInt(b, int32(n)) // wire holds a length to an xsd:int
	return append(b, `]">`...)
}

// appendTyped appends the opening tag of a parameter carrying its
// xsi:type, a scalar's or a struct's.
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

// AppendMessage appends m's complete envelope to b in one pass — no
// template, no DUT table — and returns the extended slice. It is the
// repository's one from-scratch renderer: the gSOAP-like baseline and the
// engine's from-scratch send ("bSOAP Full Serialization") both call it, so
// the measured gap between them and differential serialization is
// strategy alone. Doubles print through conv.
func (c *Compiler) AppendMessage(b []byte, m *wire.Message, conv fastconv.Converter) []byte {
	head, tail := c.Operation(m)
	b = append(b, head...)
	leaf := 0
	params := m.Params()
	for i := range params {
		open, steps, end, n := c.Param(&params[i])
		b = append(b, open...)
		for ; n > 0; n-- {
			for j := range steps {
				st := &steps[j]
				b = append(b, st.Lit...)
				if st.Leaf != nil {
					b = appendScalar(b, m, st.Leaf, leaf, conv)
					b = append(b, st.Close...)
					leaf++
				}
			}
		}
		b = append(b, end...)
	}
	return append(b, tail...)
}

// appendScalar appends the value of leaf, of scalar type t.
func appendScalar(b []byte, m *wire.Message, t *wire.Type, leaf int, conv fastconv.Converter) []byte {
	switch t.Kind {
	case wire.Int:
		return xsdlex.AppendInt(b, m.LeafInt(leaf))
	case wire.Double:
		var tmp [xsdlex.MaxDoubleWidth]byte
		n := conv.WriteDouble(tmp[:], m.LeafDouble(leaf))
		return append(b, tmp[:n]...)
	case wire.Bool:
		return xsdlex.AppendBool(b, m.LeafBool(leaf))
	case wire.String:
		return xsdlex.EscapeText(b, m.LeafString(leaf))
	}
	return b
}
