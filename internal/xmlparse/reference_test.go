package xmlparse

// The tokenizer as it stood before tokens became views into the document:
// a string made for every name, attribute and text run, the open-element
// stack a stack of strings. It is kept, unedited but for the type names,
// as the oracle FuzzParser compares the view tokenizer against token by
// token, and as the string form the table tests read tokens in.

import (
	"fmt"

	"bsoap/internal/xsdlex"
)

// refAttr is one attribute of a start tag.
type refAttr struct {
	Name  string
	Value string
}

// refToken is one parse event.
type refToken struct {
	Kind  Kind
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
			return refToken{Kind: EOF}, nil
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
			p.pending = &refToken{Kind: CharData, Text: text}
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
	return refToken{Kind: CharData, Text: text}, nil
}

// startTag parses <name attr="v" ...> or <name .../>.
func (p *refParser) startTag() (refToken, error) {
	p.pos++ // consume '<'
	name, err := p.name()
	if err != nil {
		return refToken{}, err
	}
	tok := refToken{Kind: StartElement, Name: name}
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
			p.pending = &refToken{Kind: EndElement, Name: name}
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
	return refToken{Kind: EndElement, Name: name}, nil
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

// toRef copies a view token into the reference's string form.
func toRef(t *Token) refToken {
	r := refToken{Kind: t.Kind, Name: string(t.Name), Text: string(t.Text)}
	for _, a := range t.Attrs {
		r.Attrs = append(r.Attrs, refAttr{string(a.Name), string(a.Value)})
	}
	return r
}

// The three convenience reads as they stood before they read the tag a
// serializer writes with one compare: every token through the general
// walk. FuzzExpect holds the fast reads to them step by step.

func refExpectStart(p *Parser, local string) (*Token, error) {
	t, err := p.NextNonSpace()
	if err != nil {
		return nil, err
	}
	if t.Kind != StartElement {
		return nil, fmt.Errorf("xmlparse: expected <%s>, got %v", local, t.Kind)
	}
	if local != "" && !equal(Local(t.Name), local) {
		return nil, fmt.Errorf("xmlparse: expected <%s>, got <%s>", local, t.Name)
	}
	return t, nil
}

func refExpectEnd(p *Parser) (*Token, error) {
	t, err := p.NextNonSpace()
	if err != nil {
		return nil, err
	}
	if t.Kind != EndElement {
		return nil, fmt.Errorf("xmlparse: expected end tag, got %v", t.Kind)
	}
	return t, nil
}

func refText(p *Parser) ([]byte, error) {
	var text []byte
	for {
		t, err := p.Next()
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case CharData:
			if text == nil {
				text = t.Text
			} else {
				text = append(text[:len(text):len(text)], t.Text...)
			}
		case EndElement:
			return text, nil
		default:
			return nil, fmt.Errorf("xmlparse: unexpected %v inside text element", t.Kind)
		}
	}
}
