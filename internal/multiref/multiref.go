// Package multiref implements SOAP 1.1 multi-reference accessors —
// "identifiers that refer to previously serialized instances of
// specific elements of the SOAP call". The paper's related work notes
// they "can be included within our serialized messages to further
// improve serialization performance", and its footnote records that
// gSOAP supports them while bSOAP does not; accordingly, this package
// provides multi-ref for the *full-serialization* path (an encoder in
// the gSOAP style) and a resolver the server runs before decoding.
// Differential templates never emit multi-refs, matching the paper.
//
// Encoding: string leaves whose escaped value is at least minLength
// bytes and occurs more than once are serialized once, as trailing
//
//	<multiRef id="mrN">value</multiRef>
//
// siblings of the operation element, and referenced everywhere by the
// leaf's opening tag, self-closed with the reference: <tag href="#mrN"/>
// (a scalar parameter's tag keeps its xsi:type). Everything else is
// soapenv's framing, byte for byte. Inline reverses the transformation,
// yielding a plain envelope any decoder understands.
package multiref

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// minLength is the smallest escaped string value worth deduplicating:
// below it, the href markup outweighs the value.
const minLength = 12

// Encoder is a full serializer with multi-ref string deduplication: it
// runs soapenv's steps, writing an href element in place of each
// repeated string leaf. Not safe for concurrent use (the buffer is
// reused).
type Encoder struct {
	grammar soapenv.Compiler
	buf     []byte
	ids     map[string]int // escaped value → id number
	uses    map[string]int // escaped value → occurrence count
}

// NewEncoder returns a ready encoder.
func NewEncoder() *Encoder {
	return &Encoder{buf: make([]byte, 0, 4096)}
}

// Serialize renders m fully with multi-ref encoding. The returned
// slice is valid until the next call.
func (e *Encoder) Serialize(m *wire.Message) []byte {
	// Pass 1: count repeated string values.
	e.uses = make(map[string]int)
	for i := 0; i < m.NumLeaves(); i++ {
		if m.LeafType(i).Kind != wire.String {
			continue
		}
		esc := string(xsdlex.EscapeText(nil, m.LeafString(i)))
		if len(esc) >= minLength {
			e.uses[esc]++
		}
	}
	e.ids = make(map[string]int)

	b := e.buf[:0]
	head, tail := e.grammar.Operation(m)
	b = append(b, head...)
	leaf := 0
	params := m.Params()
	for i := range params {
		open, steps, end, n := e.grammar.Param(&params[i])
		b = append(b, open...)
		for ; n > 0; n-- {
			for j := range steps {
				if st := &steps[j]; st.Leaf == nil {
					b = append(b, st.Lit...)
				} else {
					b = e.leaf(b, m, st, leaf)
					leaf++
				}
			}
		}
		b = append(b, end...)
	}
	// The operation's close tag, then the multiRef elements beside the
	// operation in first-use order (ids ascend), then the envelope's end.
	b = append(b, tail[:len(tail)-len(soapenv.EnvelopeEnd)]...)
	refs := make([]string, len(e.ids))
	for esc, id := range e.ids {
		refs[id] = esc
	}
	for id, esc := range refs {
		b = append(b, `<multiRef id="mr`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `">`...)
		b = append(b, esc...)
		b = append(b, "</multiRef>"...)
	}
	b = append(b, soapenv.EnvelopeEnd...)
	e.buf = b
	return b
}

// leaf writes one leaf step: an href to the value's multiRef when the
// leaf is a repeated string — the leaf's opening tag, self-closed with
// the reference — else the tag, the value and the closing tag.
func (e *Encoder) leaf(b []byte, m *wire.Message, st *soapenv.Step, leaf int) []byte {
	if st.Leaf.Kind == wire.String {
		esc := string(xsdlex.EscapeText(nil, m.LeafString(leaf)))
		if e.uses[esc] > 1 {
			id, ok := e.ids[esc]
			if !ok {
				id = len(e.ids)
				e.ids[esc] = id
			}
			b = append(b, st.Lit[:len(st.Lit)-1]...) // the opening tag without its '>'
			b = append(b, ` href="#mr`...)
			b = strconv.AppendInt(b, int64(id), 10)
			return append(b, `"/>`...)
		}
	}
	b = append(b, st.Lit...)
	switch st.Leaf.Kind {
	case wire.Int:
		b = xsdlex.AppendInt(b, m.LeafInt(leaf))
	case wire.Double:
		b = xsdlex.AppendDouble(b, m.LeafDouble(leaf))
	case wire.Bool:
		b = xsdlex.AppendBool(b, m.LeafBool(leaf))
	case wire.String:
		b = xsdlex.EscapeText(b, m.LeafString(leaf))
	}
	return append(b, st.Close...)
}

// HasRefs cheaply detects whether a body uses multi-ref encoding. Every
// request pays for it, so it scans the bytes where they lie.
func HasRefs(body []byte) bool {
	return bytes.Contains(body, []byte(`href="#`))
}

// Inline resolves every href reference in body against its multiRef
// definitions and strips the multiRef section, producing a plain
// envelope for the ordinary decoders. The input is not modified.
func Inline(body []byte) ([]byte, error) {
	refs, err := collectRefs(body)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(body))
	rest := string(body)
	for {
		// Replace <tag href="#id"/> with <tag>value</tag>.
		idx := strings.Index(rest, `href="#`)
		if idx < 0 {
			break
		}
		// The href must sit in the start tag it is read from: a '>'
		// between that tag's '<' and the href puts it in text.
		open := strings.LastIndexByte(rest[:idx], '<')
		if open < 0 || strings.IndexByte(rest[open:idx], '>') >= 0 {
			return nil, fmt.Errorf("multiref: href outside a start tag")
		}
		tagEnd := open + 1
		for tagEnd < len(rest) && isNameByte(rest[tagEnd]) {
			tagEnd++
		}
		tag := rest[open+1 : tagEnd]
		idStart := idx + len(`href="#`)
		idEnd := strings.IndexByte(rest[idStart:], '"')
		if idEnd < 0 {
			return nil, fmt.Errorf("multiref: unterminated href")
		}
		id := rest[idStart : idStart+idEnd]
		after := rest[idStart+idEnd:]
		close := strings.Index(after, "/>")
		// The /> must terminate THIS element: no '<' may precede it.
		if lt := strings.IndexByte(after, '<'); close < 0 || (lt >= 0 && lt < close) {
			return nil, fmt.Errorf("multiref: href element %q not self-closing", tag)
		}
		val, ok := refs[id]
		if !ok {
			return nil, fmt.Errorf("multiref: undefined reference %q", id)
		}
		out = append(out, rest[:open]...)
		out = append(out, '<')
		out = append(out, tag...)
		out = append(out, '>')
		out = append(out, val...)
		out = append(out, "</"...)
		out = append(out, tag...)
		out = append(out, '>')
		rest = rest[idStart+idEnd+close+2:]
	}
	out = append(out, rest...)

	// Strip the multiRef definitions.
	return stripMultiRefs(out)
}

// collectRefs gathers id → raw escaped content of multiRef elements,
// refusing a duplicate id and a multiRef whose content holds a
// reference.
func collectRefs(body []byte) (map[string]string, error) {
	refs := make(map[string]string)
	s := string(body)
	for {
		idx := strings.Index(s, "<multiRef ")
		if idx < 0 {
			return refs, nil
		}
		s = s[idx:]
		gt := strings.IndexByte(s, '>')
		if gt < 0 {
			return nil, fmt.Errorf("multiref: unterminated multiRef tag")
		}
		attrs := s[len("<multiRef "):gt]
		idIdx := strings.Index(attrs, `id="`)
		if idIdx < 0 {
			return nil, fmt.Errorf("multiref: multiRef without id")
		}
		idRest := attrs[idIdx+len(`id="`):]
		q := strings.IndexByte(idRest, '"')
		if q < 0 {
			return nil, fmt.Errorf("multiref: unterminated id")
		}
		id := idRest[:q]
		end := strings.Index(s[gt:], "</multiRef>")
		if end < 0 {
			return nil, fmt.Errorf("multiref: unterminated multiRef %q", id)
		}
		if _, dup := refs[id]; dup {
			return nil, fmt.Errorf("multiref: duplicate id %q", id)
		}
		// A value that refers on would need resolving in turn, and a
		// cycle never ends: a multiRef holds no reference.
		if strings.Contains(s[gt+1:gt+end], `href="#`) {
			return nil, fmt.Errorf("multiref: multiRef %q holds a reference", id)
		}
		refs[id] = s[gt+1 : gt+end]
		s = s[gt+end+len("</multiRef>"):]
	}
}

// stripMultiRefs removes every multiRef element from the document.
func stripMultiRefs(body []byte) ([]byte, error) {
	s := string(body)
	var out []byte
	for {
		idx := strings.Index(s, "<multiRef ")
		if idx < 0 {
			out = append(out, s...)
			return out, nil
		}
		out = append(out, s[:idx]...)
		end := strings.Index(s[idx:], "</multiRef>")
		if end < 0 {
			return nil, fmt.Errorf("multiref: unterminated multiRef during strip")
		}
		s = s[idx+end+len("</multiRef>"):]
	}
}

// isNameByte mirrors the XML name byte class used by the parser.
func isNameByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	case b == ':' || b == '_' || b == '-' || b == '.':
		return true
	}
	return false
}
