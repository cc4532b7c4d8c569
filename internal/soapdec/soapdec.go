// Package soapdec decodes SOAP request/response envelopes into wire
// messages, driven by per-operation schemas. It is the server-side
// mirror of the client serializers and the substrate for differential
// deserialization: when asked, it records each scalar leaf's *variable
// byte region* — value, floating closing tag, and whitespace padding —
// so a later request can be diffed region-wise instead of re-parsed.
package soapdec

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
	"bsoap/internal/xsdlex"
)

// ParamSpec declares one expected parameter: its element name and type.
// Array lengths are dynamic (read from the SOAP-ENC:arrayType
// attribute).
type ParamSpec struct {
	Name string
	Type *wire.Type
}

// Schema declares an operation's expected parameters.
type Schema struct {
	Namespace string
	Op        string
	Params    []ParamSpec
}

// LeafRange is the variable byte region of one scalar leaf within the
// message body: from right after the element's opening '>' to the start
// of the next tag after the value's padding.
type LeafRange struct {
	Start, End int
}

// Result is a decoded message, with leaf ranges when requested.
type Result struct {
	Msg    *wire.Message
	Ranges []LeafRange
}

// Lookup resolves an operation's local name to its schema.
type Lookup func(opLocal string) (*Schema, bool)

// Decode parses one SOAP envelope. With recordRanges set, Result.Ranges
// holds one entry per scalar leaf, in leaf order.
func Decode(body []byte, lookup Lookup, recordRanges bool) (*Result, error) {
	p := xmlparse.NewParser(body)
	if _, err := p.ExpectStart("Envelope"); err != nil {
		return nil, fmt.Errorf("soapdec: %w", err)
	}
	tok, err := p.NextNonSpace()
	if err != nil {
		return nil, fmt.Errorf("soapdec: %w", err)
	}
	// An optional SOAP Header is skipped wholesale.
	if tok.Kind == xmlparse.StartElement && string(xmlparse.Local(tok.Name)) == "Header" {
		if err := p.SkipElement(); err != nil {
			return nil, fmt.Errorf("soapdec: skipping header: %w", err)
		}
		tok, err = p.NextNonSpace()
		if err != nil {
			return nil, fmt.Errorf("soapdec: %w", err)
		}
	}
	if tok.Kind != xmlparse.StartElement || string(xmlparse.Local(tok.Name)) != "Body" {
		return nil, fmt.Errorf("soapdec: expected Body, got %v %q", tok.Kind, tok.Name)
	}
	opTok, err := p.ExpectStart("")
	if err != nil {
		return nil, fmt.Errorf("soapdec: reading operation: %w", err)
	}
	opLocal := string(xmlparse.Local(opTok.Name))
	schema, ok := lookup(opLocal)
	if !ok {
		return nil, fmt.Errorf("soapdec: unknown operation %q", opLocal)
	}

	d := &decoder{p: p, body: body, record: recordRanges}
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

type decoder struct {
	p      *xmlparse.Parser
	body   []byte
	record bool
	ranges []LeafRange
}

// param decodes one parameter element according to its spec.
func (d *decoder) param(msg *wire.Message, spec ParamSpec) error {
	tok, err := d.p.ExpectStart(spec.Name)
	if err != nil {
		return err
	}
	switch spec.Type.Kind {
	case wire.Array:
		n, err := arrayCount(tok.Attrs)
		if err != nil {
			return err
		}
		return d.array(msg, spec, n)
	case wire.Struct:
		leaf := msg.NumLeaves()
		msg.AddStruct(spec.Name, spec.Type)
		_, err := d.value(msg, spec.Type, leaf)
		return err
	default:
		return d.scalarParam(msg, spec)
	}
}

// scalarParam decodes a scalar parameter (its element is already open).
func (d *decoder) scalarParam(msg *wire.Message, spec ParamSpec) error {
	leaf := msg.NumLeaves()
	switch spec.Type.Kind {
	case wire.Int:
		msg.AddInt(spec.Name, 0)
	case wire.Double:
		msg.AddDouble(spec.Name, 0)
	case wire.String:
		msg.AddString(spec.Name, "")
	case wire.Bool:
		msg.AddBool(spec.Name, false)
	default:
		return fmt.Errorf("unsupported scalar kind %v", spec.Type.Kind)
	}
	return d.scalar(msg, leaf)
}

// array decodes n items of the array whose open tag has been consumed.
func (d *decoder) array(msg *wire.Message, spec ParamSpec, n int) error {
	elem := spec.Type.Elem
	// The count is the peer's claim, and the message makes every leaf slot
	// of every item before the first item is read. An item cannot take
	// less of the body than its type's emptiest form, so a count the
	// remaining bytes cannot hold is refused before anything is allocated
	// for it.
	if n > (len(d.body)-d.p.Offset())/minEncoded(elem, "item") {
		return fmt.Errorf("array length %d exceeds the body", n)
	}
	leaf := msg.NumLeaves()
	switch elem.Kind {
	case wire.Int:
		msg.AddIntArray(spec.Name, n)
	case wire.Double:
		msg.AddDoubleArray(spec.Name, n)
	case wire.String:
		msg.AddStringArray(spec.Name, n)
	case wire.Struct:
		msg.AddStructArray(spec.Name, elem, n)
	default:
		return fmt.Errorf("unsupported array element kind %v", elem.Kind)
	}
	if d.record {
		d.ranges = slices.Grow(d.ranges, msg.NumLeaves()-leaf)
	}
	for i := 0; i < n; i++ {
		if _, err := d.p.ExpectStart("item"); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		var err error
		leaf, err = d.value(msg, elem, leaf)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	_, err := d.p.ExpectEnd() // array close
	return err
}

// minEncoded is the fewest body bytes one value of type t in an element
// named tag can occupy: <tag/> for a scalar; for a struct, its own open
// and close tags around the least each field can be.
func minEncoded(t *wire.Type, tag string) int {
	if t.Kind != wire.Struct {
		return len("</>") + len(tag)
	}
	n := len("<></>") + 2*len(tag)
	for _, f := range t.Fields {
		n += minEncoded(f.Type, f.Name)
	}
	return n
}

// value decodes one value of type t, whose element is already open, into
// the leaf slot(s) starting at leaf.
func (d *decoder) value(msg *wire.Message, t *wire.Type, leaf int) (int, error) {
	if t.Kind != wire.Struct {
		return leaf + 1, d.scalar(msg, leaf)
	}
	for _, f := range t.Fields {
		if _, err := d.p.ExpectStart(f.Name); err != nil {
			return leaf, err
		}
		var err error
		if leaf, err = d.value(msg, f.Type, leaf); err != nil {
			return leaf, err
		}
	}
	_, err := d.p.ExpectEnd()
	return leaf, err
}

// scalar parses the open element's text into leaf and, when recording,
// captures its variable region: from the text's first byte past the
// closing tag and any padding to the next '<'.
func (d *decoder) scalar(msg *wire.Message, leaf int) error {
	start := d.p.Offset()
	text, err := d.p.Text()
	if err != nil {
		return err
	}
	if d.record {
		end := d.p.Offset()
		if i := bytes.IndexByte(d.body[end:], '<'); i >= 0 {
			end += i
		} else {
			end = len(d.body)
		}
		d.ranges = append(d.ranges, LeafRange{Start: start, End: end})
	}
	return setLeaf(msg, leaf, text, false)
}

// SetLeafBytes parses raw — one leaf's character data exactly as it
// stands in a message body — per the leaf's type and stores the value in
// msg. It is the differential deserializer's re-lex step, so numeric and
// boolean text is parsed where it lies, with no copy, string or interface
// value made for it; a string leaf allocates only the value the message
// keeps. Entities are resolved for strings alone: escaped numeric text
// fails here and is left for the full parse to accept.
func SetLeafBytes(msg *wire.Message, leaf int, raw []byte) error {
	return setLeaf(msg, leaf, raw, true)
}

// setLeaf is the one place a leaf's text becomes its value. The full
// parse hands it text the tokenizer has already resolved (escaped false);
// the region lexer hands it body bytes.
func setLeaf(msg *wire.Message, leaf int, text []byte, escaped bool) error {
	switch t := msg.LeafType(leaf); t.Kind {
	case wire.Int:
		v, err := xsdlex.ParseInt(text)
		if err != nil {
			return err
		}
		msg.SetLeafInt(leaf, v)
	case wire.Double:
		v, err := xsdlex.ParseDouble(text)
		if err != nil {
			return err
		}
		msg.SetLeafDouble(leaf, v)
	case wire.Bool:
		v, err := xsdlex.ParseBool(text)
		if err != nil {
			return err
		}
		msg.SetLeafBool(leaf, v)
	case wire.String:
		v := string(text) // the message keeps it: the one copy a leaf costs
		if escaped {
			var err error
			if v, err = xsdlex.UnescapeText(v); err != nil {
				return err
			}
		}
		msg.SetLeafString(leaf, v)
	default:
		return fmt.Errorf("soapdec: non-scalar type %v", t.Kind)
	}
	return nil
}

// arrayCount extracts the element count from SOAP-ENC:arrayType.
func arrayCount(attrs []xmlparse.Attr) (int, error) {
	for _, a := range attrs {
		if string(xmlparse.Local(a.Name)) != "arrayType" {
			continue
		}
		open := bytes.IndexByte(a.Value, '[')
		closeB := bytes.IndexByte(a.Value, ']')
		if open < 0 || closeB <= open {
			return 0, fmt.Errorf("soapdec: malformed arrayType %q", a.Value)
		}
		n, err := strconv.Atoi(string(a.Value[open+1 : closeB]))
		if err != nil || n < 0 {
			return 0, fmt.Errorf("soapdec: bad array length in %q", a.Value)
		}
		return n, nil
	}
	return 0, fmt.Errorf("soapdec: array element missing arrayType attribute")
}
