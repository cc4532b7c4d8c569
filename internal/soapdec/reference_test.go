package soapdec

// The full parse as it stood before the tokenizer stopped allocating: the
// tokenizer that made a string of every name and text run, and the
// decoder that boxed every value into an interface on its way to the
// message. Both are kept, unedited but for their names, as the oracle
// FuzzDecode and TestDecodeMatchesReference hold Decode against — same
// accept or reject, same leaves, same ranges.

import (
	"fmt"
	"strconv"
	"strings"

	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
	"bsoap/internal/xsdlex"
)

// refDecode parses one SOAP envelope. With recordRanges set, Result.Ranges
// holds one entry per scalar leaf, in leaf order.
func refDecode(body []byte, lookup Lookup, recordRanges bool) (*Result, error) {
	p := newRefParser(body)
	if _, err := p.ExpectStart("Envelope"); err != nil {
		return nil, fmt.Errorf("soapdec: %w", err)
	}
	tok, err := p.NextNonSpace()
	if err != nil {
		return nil, fmt.Errorf("soapdec: %w", err)
	}
	// An optional SOAP Header is skipped wholesale.
	if tok.Kind == xmlparse.StartElement && xmlparse.Local(tok.Name) == "Header" {
		if err := p.SkipElement(); err != nil {
			return nil, fmt.Errorf("soapdec: skipping header: %w", err)
		}
		tok, err = p.NextNonSpace()
		if err != nil {
			return nil, fmt.Errorf("soapdec: %w", err)
		}
	}
	if tok.Kind != xmlparse.StartElement || xmlparse.Local(tok.Name) != "Body" {
		return nil, fmt.Errorf("soapdec: expected Body, got %v %q", tok.Kind, tok.Name)
	}
	opTok, err := p.ExpectStart("")
	if err != nil {
		return nil, fmt.Errorf("soapdec: reading operation: %w", err)
	}
	opLocal := xmlparse.Local(opTok.Name)
	schema, ok := lookup(opLocal)
	if !ok {
		return nil, fmt.Errorf("soapdec: unknown operation %q", opLocal)
	}

	d := &refDecoder{p: p, body: body, record: recordRanges}
	msg := wire.NewMessage(schema.Namespace, schema.Op)
	for _, spec := range schema.Params {
		if err := d.param(msg, spec); err != nil {
			return nil, fmt.Errorf("soapdec: parameter %q: %w", spec.Name, err)
		}
	}
	// Close operation, body, envelope.
	for i := 0; i < 3; i++ {
		if _, err := p.ExpectEnd(); err != nil {
			return nil, fmt.Errorf("soapdec: closing envelope: %w", err)
		}
	}
	msg.ClearDirty()
	return &Result{Msg: msg, Ranges: d.ranges}, nil
}

type refDecoder struct {
	p      *refParser
	body   []byte
	record bool
	ranges []LeafRange
}

// param decodes one parameter element according to its spec.
func (d *refDecoder) param(msg *wire.Message, spec ParamSpec) error {
	tok, err := d.p.ExpectStart(spec.Name)
	if err != nil {
		return err
	}
	switch spec.Type.Kind {
	case wire.Array:
		n, err := refArrayCount(tok.Attrs)
		if err != nil {
			return err
		}
		return d.array(msg, spec, n)
	case wire.Struct:
		leaf := msg.NumLeaves()
		msg.AddStruct(spec.Name, spec.Type)
		if _, err := d.structFields(msg, spec.Type, leaf); err != nil {
			return err
		}
		_, err := d.p.ExpectEnd()
		return err
	default:
		return d.scalarParam(msg, spec)
	}
}

// scalarParam decodes a scalar parameter (its element is already open).
func (d *refDecoder) scalarParam(msg *wire.Message, spec ParamSpec) error {
	switch spec.Type.Kind {
	case wire.Int:
		ref := msg.AddInt(spec.Name, 0)
		v, err := d.leafText(wire.TInt)
		if err != nil {
			return err
		}
		ref.Set(v.(int32))
	case wire.Double:
		ref := msg.AddDouble(spec.Name, 0)
		v, err := d.leafText(wire.TDouble)
		if err != nil {
			return err
		}
		ref.Set(v.(float64))
	case wire.String:
		ref := msg.AddString(spec.Name, "")
		v, err := d.leafText(wire.TString)
		if err != nil {
			return err
		}
		ref.Set(v.(string))
	case wire.Bool:
		ref := msg.AddBool(spec.Name, false)
		v, err := d.leafText(wire.TBool)
		if err != nil {
			return err
		}
		ref.Set(v.(bool))
	default:
		return fmt.Errorf("unsupported scalar kind %v", spec.Type.Kind)
	}
	return nil
}

// array decodes n items of the array whose open tag has been consumed.
func (d *refDecoder) array(msg *wire.Message, spec ParamSpec, n int) error {
	// The count is the peer's claim. Every item takes at least "<item/>"
	// of the body, so a count the remaining bytes cannot hold is refused
	// before the message allocates that many leaves for it.
	if n > (len(d.body)-d.p.Offset())/len("<item/>") {
		return fmt.Errorf("array length %d exceeds the body", n)
	}
	elem := spec.Type.Elem
	var first int
	switch elem.Kind {
	case wire.Int:
		first = msg.NumLeaves()
		msg.AddIntArray(spec.Name, n)
	case wire.Double:
		first = msg.NumLeaves()
		msg.AddDoubleArray(spec.Name, n)
	case wire.String:
		first = msg.NumLeaves()
		msg.AddStringArray(spec.Name, n)
	case wire.Struct:
		first = msg.NumLeaves()
		msg.AddStructArray(spec.Name, elem, n)
	default:
		return fmt.Errorf("unsupported array element kind %v", elem.Kind)
	}
	leaf := first
	for i := 0; i < n; i++ {
		if _, err := d.p.ExpectStart("item"); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		var err error
		leaf, err = d.value(msg, elem, leaf, true)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	_, err := d.p.ExpectEnd() // array close
	return err
}

// value decodes one value of type t into leaf slot(s) starting at leaf.
// The enclosing element is already open when elemOpen is true.
func (d *refDecoder) value(msg *wire.Message, t *wire.Type, leaf int, elemOpen bool) (int, error) {
	if !elemOpen {
		if _, err := d.p.ExpectStart(""); err != nil {
			return leaf, err
		}
	}
	if t.Kind == wire.Struct {
		leaf, err := d.structFields(msg, t, leaf)
		if err != nil {
			return leaf, err
		}
		_, err = d.p.ExpectEnd()
		return leaf, err
	}
	return d.scalarInto(msg, t, leaf)
}

// structFields decodes the fields of an open struct element.
func (d *refDecoder) structFields(msg *wire.Message, t *wire.Type, leaf int) (int, error) {
	for _, f := range t.Fields {
		if _, err := d.p.ExpectStart(f.Name); err != nil {
			return leaf, err
		}
		var err error
		if f.Type.Kind == wire.Struct {
			leaf, err = d.structFields(msg, f.Type, leaf)
			if err != nil {
				return leaf, err
			}
			if _, err = d.p.ExpectEnd(); err != nil {
				return leaf, err
			}
		} else {
			leaf, err = d.scalarInto(msg, f.Type, leaf)
			if err != nil {
				return leaf, err
			}
		}
	}
	return leaf, nil
}

// scalarInto parses the open element's text into leaf and records its
// variable region.
func (d *refDecoder) scalarInto(msg *wire.Message, t *wire.Type, leaf int) (int, error) {
	v, err := d.leafText(t)
	if err != nil {
		return leaf, err
	}
	switch t.Kind {
	case wire.Int:
		msg.SetLeafInt(leaf, v.(int32))
	case wire.Double:
		msg.SetLeafDouble(leaf, v.(float64))
	case wire.String:
		msg.SetLeafString(leaf, v.(string))
	case wire.Bool:
		msg.SetLeafBool(leaf, v.(bool))
	}
	return leaf + 1, nil
}

// leafText consumes the current element's text and closing tag, parses
// it per type, and (when recording) captures the variable byte region.
func (d *refDecoder) leafText(t *wire.Type) (any, error) {
	start := d.p.Offset()
	text, err := d.p.Text()
	if err != nil {
		return nil, err
	}
	if d.record {
		// Extend past the closing tag and any padding to the next '<'.
		end := d.p.Offset()
		for end < len(d.body) && d.body[end] != '<' {
			end++
		}
		d.ranges = append(d.ranges, LeafRange{Start: uint32(start), End: uint32(end)})
	}
	return refParseScalar(t, text)
}

// refParseScalar parses one lexical value per its wire type.
func refParseScalar(t *wire.Type, text string) (any, error) {
	switch t.Kind {
	case wire.Int:
		return parseIntText(text)
	case wire.Double:
		return parseDoubleText(text)
	case wire.String:
		return text, nil
	case wire.Bool:
		return parseBoolText(text)
	}
	return nil, fmt.Errorf("soapdec: non-scalar type %v", t.Kind)
}

// refArrayCount extracts the element count from SOAP-ENC:arrayType.
func refArrayCount(attrs []refAttr) (int, error) {
	for _, a := range attrs {
		if xmlparse.Local(a.Name) != "arrayType" {
			continue
		}
		open := strings.IndexByte(a.Value, '[')
		closeB := strings.IndexByte(a.Value, ']')
		if open < 0 || closeB <= open {
			return 0, fmt.Errorf("soapdec: malformed arrayType %q", a.Value)
		}
		n, err := strconv.Atoi(a.Value[open+1 : closeB])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("soapdec: bad array length in %q", a.Value)
		}
		return n, nil
	}
	return 0, fmt.Errorf("soapdec: array element missing arrayType attribute")
}

func parseIntText(s string) (int32, error)      { return xsdlex.ParseInt(s) }
func parseDoubleText(s string) (float64, error) { return xsdlex.ParseDouble(s) }
func parseBoolText(s string) (bool, error)      { return xsdlex.ParseBool(s) }

// --- the tokenizer ---

// refAttr is one attribute of a start tag.
type refAttr struct {
	Name  string
	Value string
}

// refToken is one parse event.
type refToken struct {
	Kind  xmlparse.Kind
	Name  string    // element name, prefix included, for Start/EndElement
	Attrs []refAttr // attributes, for StartElement
	Text  string    // character data, for CharData
}

// refParser is a pull parser over an in-memory document.
type refParser struct {
	data    []byte
	pos     int
	stack   []string
	pending *refToken // synthetic EndElement after a self-closing tag
}

// newRefParser returns a parser over data. The slice is not copied; the
// caller must not mutate it during parsing.
func newRefParser(data []byte) *refParser {
	return &refParser{data: data}
}

// Offset reports the current byte offset into the document, used by the
// differential deserializer to record value byte-ranges.
func (p *refParser) Offset() int { return p.pos }

// Depth reports the current element nesting depth.
func (p *refParser) Depth() int { return len(p.stack) }

// Next returns the next token. After EOF or an error, subsequent calls
// repeat the result.
func (p *refParser) Next() (refToken, error) {
	if p.pending != nil {
		t := *p.pending
		p.pending = nil
		return t, nil
	}
	for {
		if p.pos >= len(p.data) {
			if len(p.stack) != 0 {
				return refToken{}, fmt.Errorf("xmlparse: document ended with %q unclosed", p.stack[len(p.stack)-1])
			}
			return refToken{Kind: xmlparse.EOF}, nil
		}
		if p.data[p.pos] != '<' {
			return p.charData()
		}
		if p.pos+1 >= len(p.data) {
			return refToken{}, p.errf("truncated markup")
		}
		switch p.data[p.pos+1] {
		case '?':
			if err := p.skipUntil("?>"); err != nil {
				return refToken{}, err
			}
		case '!':
			if err := p.skipBang(); err != nil {
				return refToken{}, err
			}
			if p.pending != nil {
				t := *p.pending
				p.pending = nil
				return t, nil
			}
		case '/':
			return p.endTag()
		default:
			return p.startTag()
		}
	}
}

// errf formats a positioned parse error.
func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("xmlparse: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// skipUntil advances past the next occurrence of marker.
func (p *refParser) skipUntil(marker string) error {
	for i := p.pos; i+len(marker) <= len(p.data); i++ {
		if string(p.data[i:i+len(marker)]) == marker {
			p.pos = i + len(marker)
			return nil
		}
	}
	return p.errf("unterminated construct (missing %q)", marker)
}

// skipBang handles <!-- comments -->, <![CDATA[...]]> (which it does NOT
// skip — CDATA is routed back as character data by charData) and DOCTYPE.
func (p *refParser) skipBang() error {
	rest := p.data[p.pos:]
	switch {
	case refHasPrefix(rest, "<!--"):
		return p.skipUntil("-->")
	case refHasPrefix(rest, "<![CDATA["):
		return p.cdata()
	default:
		// DOCTYPE etc. — skip to the matching '>' (no nested brackets
		// support; SOAP envelopes never carry a DTD).
		return p.skipUntil(">")
	}
}

// cdata consumes a CDATA section and stages its contents as a pending
// CharData token (verbatim, no entity resolution).
func (p *refParser) cdata() error {
	start := p.pos + len("<![CDATA[")
	for i := start; i+3 <= len(p.data); i++ {
		if string(p.data[i:i+3]) == "]]>" {
			text := string(p.data[start:i])
			p.pos = i + 3
			p.pending = &refToken{Kind: xmlparse.CharData, Text: text}
			return nil
		}
	}
	return p.errf("unterminated CDATA section")
}

// charData consumes text up to the next '<' and resolves entities.
func (p *refParser) charData() (refToken, error) {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos] != '<' {
		p.pos++
	}
	raw := p.data[start:p.pos]
	text, err := xsdlex.UnescapeText(string(raw))
	if err != nil {
		return refToken{}, p.errf("%v", err)
	}
	return refToken{Kind: xmlparse.CharData, Text: text}, nil
}

// startTag parses <name attr="v" ...> or <name .../>.
func (p *refParser) startTag() (refToken, error) {
	p.pos++ // consume '<'
	name, err := p.name()
	if err != nil {
		return refToken{}, err
	}
	tok := refToken{Kind: xmlparse.StartElement, Name: name}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return refToken{}, p.errf("unterminated start tag <%s", name)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			p.stack = append(p.stack, name)
			return tok, nil
		case '/':
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return refToken{}, p.errf("stray '/' in tag <%s", name)
			}
			p.pos += 2
			p.pending = &refToken{Kind: xmlparse.EndElement, Name: name}
			return tok, nil
		default:
			attr, err := p.attr()
			if err != nil {
				return refToken{}, err
			}
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

// endTag parses </name>.
func (p *refParser) endTag() (refToken, error) {
	p.pos += 2 // consume '</'
	name, err := p.name()
	if err != nil {
		return refToken{}, err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '>' {
		return refToken{}, p.errf("malformed end tag </%s", name)
	}
	p.pos++
	if len(p.stack) == 0 {
		return refToken{}, p.errf("closing tag </%s> with no open element", name)
	}
	open := p.stack[len(p.stack)-1]
	if open != name {
		return refToken{}, p.errf("closing tag </%s> does not match open <%s>", name, open)
	}
	p.stack = p.stack[:len(p.stack)-1]
	return refToken{Kind: xmlparse.EndElement, Name: name}, nil
}

// name consumes an XML name (byte-oriented: any run of name characters).
func (p *refParser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.data) && refIsNameByte(p.data[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected name")
	}
	return string(p.data[start:p.pos]), nil
}

// attr consumes name="value" or name='value'.
func (p *refParser) attr() (refAttr, error) {
	name, err := p.name()
	if err != nil {
		return refAttr{}, err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '=' {
		return refAttr{}, p.errf("attribute %q missing '='", name)
	}
	p.pos++
	p.skipSpace()
	if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
		return refAttr{}, p.errf("attribute %q missing quote", name)
	}
	quote := p.data[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos] != quote {
		p.pos++
	}
	if p.pos >= len(p.data) {
		return refAttr{}, p.errf("unterminated attribute %q", name)
	}
	raw := string(p.data[start:p.pos])
	p.pos++
	val, err := xsdlex.UnescapeText(raw)
	if err != nil {
		return refAttr{}, p.errf("attribute %q: %v", name, err)
	}
	return refAttr{Name: name, Value: val}, nil
}

func (p *refParser) skipSpace() {
	for p.pos < len(p.data) && xsdlex.IsSpace(p.data[p.pos]) {
		p.pos++
	}
}

func refIsNameByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	case b == ':' || b == '_' || b == '-' || b == '.':
		return true
	case b >= 0x80: // multi-byte UTF-8 name characters, accepted wholesale
		return true
	}
	return false
}

func refHasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// --- Convenience layer used by the SOAP deserializer ---

// NextNonSpace returns the next token, transparently skipping CharData
// tokens that are entirely white space (formatting between elements).
func (p *refParser) NextNonSpace() (refToken, error) {
	for {
		t, err := p.Next()
		if err != nil {
			return t, err
		}
		if t.Kind == xmlparse.CharData && xsdlex.TrimSpace(t.Text) == "" {
			continue
		}
		return t, nil
	}
}

// ExpectStart consumes the next non-space token and verifies it opens an
// element with the given local name (namespace prefix ignored). An empty
// local accepts any element.
func (p *refParser) ExpectStart(local string) (refToken, error) {
	t, err := p.NextNonSpace()
	if err != nil {
		return t, err
	}
	if t.Kind != xmlparse.StartElement {
		return t, fmt.Errorf("xmlparse: expected <%s>, got %v", local, t.Kind)
	}
	if local != "" && xmlparse.Local(t.Name) != local {
		return t, fmt.Errorf("xmlparse: expected <%s>, got <%s>", local, t.Name)
	}
	return t, nil
}

// ExpectEnd consumes the next non-space token and verifies it closes an
// element.
func (p *refParser) ExpectEnd() (refToken, error) {
	t, err := p.NextNonSpace()
	if err != nil {
		return t, err
	}
	if t.Kind != xmlparse.EndElement {
		return t, fmt.Errorf("xmlparse: expected end tag, got %v", t.Kind)
	}
	return t, nil
}

// Text consumes character data up to the element's closing tag and returns
// it with surrounding whitespace intact (XSD parsing trims later). It
// must be called immediately after the element's StartElement token.
func (p *refParser) Text() (string, error) {
	var text string
	for {
		t, err := p.Next()
		if err != nil {
			return "", err
		}
		switch t.Kind {
		case xmlparse.CharData:
			text += t.Text
		case xmlparse.EndElement:
			return text, nil
		default:
			return "", fmt.Errorf("xmlparse: unexpected %v inside text element", t.Kind)
		}
	}
}

// SkipElement consumes tokens until the element whose StartElement was
// just returned is closed, including nested children.
func (p *refParser) SkipElement() error {
	depth := 1
	for depth > 0 {
		t, err := p.Next()
		if err != nil {
			return err
		}
		switch t.Kind {
		case xmlparse.StartElement:
			depth++
		case xmlparse.EndElement:
			depth--
		case xmlparse.EOF:
			return fmt.Errorf("xmlparse: xmlparse.EOF inside element")
		}
	}
	return nil
}
