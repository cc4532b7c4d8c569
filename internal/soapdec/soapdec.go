// Package soapdec decodes SOAP request/response envelopes into wire
// messages, driven by per-operation schemas. It is the server-side
// mirror of the client serializers and the substrate for differential
// deserialization: when asked, it records each scalar leaf's *variable
// byte region* — value, floating closing tag, and whitespace padding —
// so a later request can be diffed region-wise instead of re-parsed.
package soapdec

import (
	"fmt"
	"strconv"
	"strings"

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
func (d *decoder) scalarParam(msg *wire.Message, spec ParamSpec) error {
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
func (d *decoder) array(msg *wire.Message, spec ParamSpec, n int) error {
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
func (d *decoder) value(msg *wire.Message, t *wire.Type, leaf int, elemOpen bool) (int, error) {
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
func (d *decoder) structFields(msg *wire.Message, t *wire.Type, leaf int) (int, error) {
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
func (d *decoder) scalarInto(msg *wire.Message, t *wire.Type, leaf int) (int, error) {
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
func (d *decoder) leafText(t *wire.Type) (any, error) {
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
		d.ranges = append(d.ranges, LeafRange{Start: start, End: end})
	}
	return parseScalar(t, text)
}

// parseScalar parses one lexical value per its wire type.
func parseScalar(t *wire.Type, text string) (any, error) {
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

// SetLeafBytes parses raw — one leaf's character data exactly as it
// stands in a message body — per the leaf's type and stores the value in
// msg. It is the differential deserializer's re-lex step, so numeric and
// boolean text is parsed where it lies, with no copy, string or interface
// value made for it; a string leaf allocates only the value the message
// keeps. Entities are resolved for strings alone: escaped numeric text
// fails here and is left for the full parse to accept.
func SetLeafBytes(msg *wire.Message, leaf int, raw []byte) error {
	switch t := msg.LeafType(leaf); t.Kind {
	case wire.Int:
		v, err := xsdlex.ParseInt(raw)
		if err != nil {
			return err
		}
		msg.SetLeafInt(leaf, v)
	case wire.Double:
		v, err := xsdlex.ParseDouble(raw)
		if err != nil {
			return err
		}
		msg.SetLeafDouble(leaf, v)
	case wire.Bool:
		v, err := xsdlex.ParseBool(raw)
		if err != nil {
			return err
		}
		msg.SetLeafBool(leaf, v)
	case wire.String:
		v, err := xsdlex.UnescapeText(string(raw))
		if err != nil {
			return err
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
