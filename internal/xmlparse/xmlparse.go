// Package xmlparse is a from-scratch, non-validating XML pull parser,
// sufficient for SOAP envelopes: elements, attributes, character data,
// comments, processing instructions, CDATA, the five predefined entities
// and numeric character references. It operates over an in-memory byte
// slice — SOAP requests arrive framed by HTTP, so the whole body is
// available — and verifies element nesting.
//
// Tokens are views: a name, an attribute and a run of text are slices of
// the document, the open-element stack holds offsets, and reading a
// document allocates nothing per token. The one exception is text or an
// attribute value that holds an entity, whose resolved form has to be
// made. A caller that outlives the document copies what it keeps.
//
// The SOAP server's full-deserialization path is built on this package;
// its cost is exactly what the paper's differential *deserialization*
// extension (§6) avoids for unchanged message regions.
package xmlparse

import (
	"bytes"
	"fmt"

	"bsoap/internal/xsdlex"
)

// Kind identifies a token type.
type Kind int

const (
	// EOF reports the end of the document.
	EOF Kind = iota
	// StartElement is an opening tag; Name and Attrs are set.
	StartElement
	// EndElement is a closing tag (or the synthetic close of a
	// self-closing tag); Name is set.
	EndElement
	// CharData is text content; Text is set (entities resolved).
	CharData
)

// String returns a readable token-kind name.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case CharData:
		return "CharData"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Attr is one attribute of a start tag.
type Attr struct {
	Name  []byte
	Value []byte
}

// Token is one parse event. Name, Text and the attribute fields are
// views into the document, not copies: a caller that keeps one past the
// document's life must copy it. Only text or an attribute value holding
// an entity is a fresh slice (the resolved form is not in the document).
type Token struct {
	Kind  Kind
	Name  []byte // element name, prefix included, for Start/EndElement
	Attrs []Attr // attributes, for StartElement
	Text  []byte // character data, for CharData (entities resolved)
}

// Parser is a pull parser over an in-memory document. It holds one token,
// the current one: every method that returns a *Token returns that one,
// overwritten by the next read — copy what must outlive it.
type Parser struct {
	data  []byte
	pos   int
	stack []nameSpan // names of the open elements, as document offsets
	tok   Token      // the current token
	attrs []Attr     // backing store of tok.Attrs
	// selfClosed is set by <name/>: the next token is its synthetic
	// EndElement, not read from the document.
	selfClosed bool
}

// nameSpan locates an open element's name in the document.
type nameSpan struct{ lo, hi int }

// NewParser returns a parser over data. The slice is not copied; the
// caller must not mutate it during parsing.
func NewParser(data []byte) *Parser {
	return &Parser{data: data}
}

// Reset makes p a parser over data, as NewParser(data) returns, keeping
// the storage of its element stack and attribute list. It drops every
// view into the previous document.
func (p *Parser) Reset(data []byte) {
	clear(p.attrs[:cap(p.attrs)])
	*p = Parser{data: data, stack: p.stack[:0], attrs: p.attrs[:0]}
}

// Offset reports the current byte offset into the document, used by the
// differential deserializer to record value byte-ranges.
func (p *Parser) Offset() int { return p.pos }

// Next reads the next token. After EOF or an error, subsequent calls
// repeat the result.
func (p *Parser) Next() (*Token, error) {
	if p.selfClosed {
		p.selfClosed = false
		p.tok.Kind, p.tok.Attrs = EndElement, nil
		return &p.tok, nil
	}
	for {
		if p.pos >= len(p.data) {
			if len(p.stack) != 0 {
				open := p.stack[len(p.stack)-1]
				return nil, fmt.Errorf("xmlparse: document ended with %q unclosed", p.data[open.lo:open.hi])
			}
			return p.set(EOF, nil, nil), nil
		}
		if p.data[p.pos] != '<' {
			return p.charData()
		}
		if p.pos+1 >= len(p.data) {
			return nil, p.errf("truncated markup")
		}
		switch p.data[p.pos+1] {
		case '?':
			if err := p.skipUntil("?>"); err != nil {
				return nil, err
			}
		case '!':
			if tok, err := p.skipBang(); tok != nil || err != nil {
				return tok, err
			}
		case '/':
			return p.endTag()
		default:
			return p.startTag()
		}
	}
}

// set makes the current token one of the given kind, with a name or with
// text, and returns it.
func (p *Parser) set(kind Kind, name, text []byte) *Token {
	p.tok.Kind, p.tok.Name, p.tok.Attrs, p.tok.Text = kind, name, nil, text
	return &p.tok
}

// errf formats a positioned parse error.
func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("xmlparse: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// skipUntil advances past the next occurrence of marker.
func (p *Parser) skipUntil(marker string) error {
	i := bytes.Index(p.data[p.pos:], []byte(marker))
	if i < 0 {
		return p.errf("unterminated construct (missing %q)", marker)
	}
	p.pos += i + len(marker)
	return nil
}

// skipBang skips a <!-- comment --> or a DOCTYPE and returns no token; a
// <![CDATA[...]]> section it returns as character data, verbatim (no
// entity resolution).
func (p *Parser) skipBang() (*Token, error) {
	rest := p.data[p.pos:]
	switch {
	case hasPrefix(rest, "<!--"):
		return nil, p.skipUntil("-->")
	case hasPrefix(rest, "<![CDATA["):
		start := p.pos + len("<![CDATA[")
		i := bytes.Index(p.data[start:], []byte("]]>"))
		if i < 0 {
			return nil, p.errf("unterminated CDATA section")
		}
		p.pos = start + i + len("]]>")
		return p.set(CharData, nil, p.data[start:start+i]), nil
	default:
		// DOCTYPE etc. — skip to the matching '>' (no nested brackets
		// support; SOAP envelopes never carry a DTD).
		return nil, p.skipUntil(">")
	}
}

// charData consumes text up to the next '<' and resolves entities.
func (p *Parser) charData() (*Token, error) {
	raw := p.data[p.pos:]
	if i := bytes.IndexByte(raw, '<'); i >= 0 {
		raw = raw[:i]
	}
	p.pos += len(raw)
	text, err := unescape(raw)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	return p.set(CharData, nil, text), nil
}

// unescape resolves the entities in raw. Text without one — nearly all of
// it — is returned as it stands in the document; only the resolved form
// is a new slice.
func unescape(raw []byte) ([]byte, error) {
	if bytes.IndexByte(raw, '&') < 0 {
		return raw, nil
	}
	s, err := xsdlex.UnescapeText(string(raw))
	return []byte(s), err
}

// startTag parses <name attr="v" ...> or <name .../>.
func (p *Parser) startTag() (*Token, error) {
	p.pos++ // consume '<'
	lo := p.pos
	name := p.name()
	if len(name) == 0 {
		return nil, p.errf("expected name")
	}
	p.attrs = p.attrs[:0]
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			p.stack = append(p.stack, nameSpan{lo, lo + len(name)})
		case '/':
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return nil, p.errf("stray '/' in tag <%s", name)
			}
			p.pos += 2
			p.selfClosed = true
		default:
			attr, err := p.attr()
			if err != nil {
				return nil, err
			}
			p.attrs = append(p.attrs, attr)
			continue
		}
		p.set(StartElement, name, nil)
		p.tok.Attrs = p.attrs
		return &p.tok, nil
	}
}

// endTag parses </name>.
func (p *Parser) endTag() (*Token, error) {
	p.pos += 2 // consume '</'
	name := p.name()
	if len(name) == 0 {
		return nil, p.errf("expected name")
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '>' {
		return nil, p.errf("malformed end tag </%s", name)
	}
	p.pos++
	if len(p.stack) == 0 {
		return nil, p.errf("closing tag </%s> with no open element", name)
	}
	open := p.stack[len(p.stack)-1]
	if !bytes.Equal(p.data[open.lo:open.hi], name) {
		return nil, p.errf("closing tag </%s> does not match open <%s>", name, p.data[open.lo:open.hi])
	}
	p.stack = p.stack[:len(p.stack)-1]
	return p.set(EndElement, name, nil), nil
}

// name consumes an XML name (byte-oriented: any run of name characters)
// and returns it, empty where none starts.
func (p *Parser) name() []byte {
	rest := p.data[p.pos:]
	n := 0
	for n < len(rest) && nameByte[rest[n]] {
		n++
	}
	p.pos += n
	return rest[:n]
}

// attr consumes name="value" or name='value'.
func (p *Parser) attr() (Attr, error) {
	name := p.name()
	if len(name) == 0 {
		return Attr{}, p.errf("expected name")
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '=' {
		return Attr{}, p.errf("attribute %q missing '='", name)
	}
	p.pos++
	p.skipSpace()
	if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
		return Attr{}, p.errf("attribute %q missing quote", name)
	}
	quote := p.data[p.pos]
	p.pos++
	n := bytes.IndexByte(p.data[p.pos:], quote)
	if n < 0 {
		p.pos = len(p.data)
		return Attr{}, p.errf("unterminated attribute %q", name)
	}
	raw := p.data[p.pos : p.pos+n]
	p.pos += n + 1
	val, err := unescape(raw)
	if err != nil {
		return Attr{}, p.errf("attribute %q: %v", name, err)
	}
	return Attr{Name: name, Value: val}, nil
}

func (p *Parser) skipSpace() { p.pos = p.spaceEnd() }

// spaceEnd returns the offset of the first byte at or after the current
// one that is not white space.
func (p *Parser) spaceEnd() int {
	data, i := p.data, p.pos
	for i < len(data) && xsdlex.IsSpace(data[i]) {
		i++
	}
	return i
}

// nameByte marks the bytes a name is made of: ASCII letters, digits and
// ":_-.", and every byte of a multi-byte UTF-8 character, accepted
// wholesale.
var nameByte = func() (t [256]bool) {
	for b := range t {
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
			t[b] = true
		case b == ':' || b == '_' || b == '-' || b == '.' || b >= 0x80:
			t[b] = true
		}
	}
	return t
}()

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && equal(b[:len(s)], s)
}

// equal reports whether b holds exactly the bytes of s.
func equal(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// Local strips any namespace prefix from an element or attribute name,
// held as a string or as the bytes of a token.
func Local[T ~string | ~[]byte](name T) T {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == ':' {
			return name[i+1:]
		}
	}
	return name
}

// --- Convenience layer used by the SOAP deserializer ---

// NextNonSpace reads the next token, transparently skipping CharData
// tokens that are entirely white space (formatting between elements).
func (p *Parser) NextNonSpace() (*Token, error) {
	for {
		// White space running up to markup is a token this loop would
		// read and drop: step over it here in one pass instead.
		if i := p.spaceEnd(); !p.selfClosed && (i == len(p.data) || p.data[i] == '<') {
			p.pos = i
		}
		t, err := p.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == CharData && len(xsdlex.TrimSpace(t.Text)) == 0 {
			continue
		}
		return t, nil
	}
}

// ExpectStart consumes the next non-space token and verifies it opens an
// element with the given local name (namespace prefix ignored). An empty
// local accepts any element.
//
// The tag a serializer writes, <local>, is read with one compare. Every
// other form — a prefix, attributes, white space inside the tag,
// <local/>, markup before it — and every error take the general walk.
func (p *Parser) ExpectStart(local string) (*Token, error) {
	if i := p.spaceEnd(); !p.selfClosed && plainName(local) {
		if tag := p.data[i:]; len(tag) > len(local)+1 && tag[0] == '<' &&
			tag[len(local)+1] == '>' && equal(tag[1:len(local)+1], local) {
			p.pos = i + len(local) + 2
			p.stack = append(p.stack, nameSpan{i + 1, i + 1 + len(local)})
			return p.set(StartElement, tag[1:len(local)+1], nil), nil
		}
	}
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

// ExpectEnd consumes the next non-space token and verifies it closes an
// element. A plain </name> of the open element is read with one compare.
func (p *Parser) ExpectEnd() (*Token, error) {
	if p.closeAt(p.spaceEnd()) {
		return &p.tok, nil
	}
	t, err := p.NextNonSpace()
	if err != nil {
		return nil, err
	}
	if t.Kind != EndElement {
		return nil, fmt.Errorf("xmlparse: expected end tag, got %v", t.Kind)
	}
	return t, nil
}

// Text consumes character data up to the element's closing tag and returns
// it with surrounding whitespace intact (XSD parsing trims later). It
// must be called immediately after the element's StartElement token. A
// single run of text — the only form a serializer writes — is returned
// as the token's view; runs split by a comment or a CDATA section are the
// one case that is joined into a new slice.
//
// That single run, holding no entity and followed by the open element's
// plain </name>, is read with one scan and one compare; anything else
// (an entity, a comment, CDATA, a child, a mismatched close) takes the
// general walk.
func (p *Parser) Text() ([]byte, error) {
	if i := bytes.IndexByte(p.data[p.pos:], '<'); i >= 0 {
		run := p.data[p.pos : p.pos+i]
		if bytes.IndexByte(run, '&') < 0 && p.closeAt(p.pos+i) {
			if i == 0 {
				return nil, nil // no CharData token: the general walk's nil
			}
			return run, nil
		}
	}
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
				// The full-slice expression caps text at its length, so
				// the append copies and never writes into the document.
				text = append(text[:len(text):len(text)], t.Text...)
			}
		case EndElement:
			return text, nil
		default:
			return nil, fmt.Errorf("xmlparse: unexpected %v inside text element", t.Kind)
		}
	}
}

// closeAt reads the open element's close tag at offset i when it stands
// there as a serializer writes it, </name>: it pops the element, makes
// the current token its EndElement and reports true. Anything else it
// leaves unread for the general walk.
func (p *Parser) closeAt(i int) bool {
	n := len(p.stack)
	if p.selfClosed || n == 0 {
		return false
	}
	open := p.stack[n-1]
	name, tag := p.data[open.lo:open.hi], p.data[i:]
	if len(tag) < len(name)+3 || tag[0] != '<' || tag[1] != '/' || tag[len(name)+2] != '>' ||
		!bytes.Equal(tag[2:len(name)+2], name) {
		return false
	}
	p.pos = i + len(name) + 3
	p.stack = p.stack[:n-1]
	p.set(EndElement, tag[2:len(name)+2], nil)
	return true
}

// plainName reports whether local is a name with no prefix, so that
// <local> is a tag the general walk would read as that element.
func plainName(local string) bool {
	for i := 0; i < len(local); i++ {
		if !nameByte[local[i]] || local[i] == ':' {
			return false
		}
	}
	return len(local) > 0
}

// SkipElement consumes tokens until the element whose StartElement was
// just returned is closed, including nested children.
func (p *Parser) SkipElement() error {
	depth := 1
	for depth > 0 {
		t, err := p.Next()
		if err != nil {
			return err
		}
		switch t.Kind {
		case StartElement:
			depth++
		case EndElement:
			depth--
		case EOF:
			return fmt.Errorf("xmlparse: EOF inside element")
		}
	}
	return nil
}
