// Package baseline implements the full-serialization SOAP toolkits the
// paper compares against. Both produce the same wire format as the
// differential engine, so measured differences come from strategy, not
// from message size.
//
//   - GSOAPLike reproduces gSOAP's approach: a single streaming pass over
//     the data into one reusable growing buffer, with tight inline
//     value-conversion loops (soapenv's Compiler.AppendMessage, which the
//     engine's from-scratch send shares). This is the fastest way to serialize a
//     message *from scratch*; differential serialization wins by not
//     serializing from scratch.
//
//   - XSOAPLike reproduces why the Java XSOAP toolkit measures slower:
//     serialization first builds an object tree (one allocation per
//     element, values boxed to strings), then stringifies it in a second
//     pass — the document-object style RMI serializers of the era.
package baseline

import (
	"net"
	"strconv"

	"bsoap/internal/fastconv"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Serializer turns a message into its complete wire form. Implementations
// may reuse an internal buffer: the returned slice is valid until the
// next Serialize call.
type Serializer interface {
	// Name identifies the implementation in benchmark output.
	Name() string
	// Serialize renders m fully.
	Serialize(m *wire.Message) []byte
}

// Client couples a Serializer with a Sink, giving the baselines the same
// call surface as the differential stub.
type Client struct {
	ser  Serializer
	sink Sink
}

// Sink matches core.Sink without importing it (the consumer defines the
// interface; transports satisfy both).
type Sink interface {
	Send(bufs net.Buffers) error
}

// NewClient returns a client sending through sink.
func NewClient(ser Serializer, sink Sink) *Client {
	return &Client{ser: ser, sink: sink}
}

// Call serializes and sends m, returning the byte count.
func (c *Client) Call(m *wire.Message) (int, error) {
	data := c.ser.Serialize(m)
	if err := c.sink.Send(net.Buffers{data}); err != nil {
		return 0, err
	}
	return len(data), nil
}

// ---------------------------------------------------------------------
// gSOAP-like: one streaming pass, reused buffer, inline conversions.
// ---------------------------------------------------------------------

// GSOAPLike is a single-pass full serializer in the style of gSOAP; the
// zero value is ready to use. Not safe for concurrent use (the buffer is
// reused across calls).
type GSOAPLike struct {
	// Conv is the double converter (the zero value is the default one).
	Conv    fastconv.Converter
	grammar soapenv.Compiler
	buf     []byte
}

// Name implements Serializer.
func (g *GSOAPLike) Name() string { return "gSOAP-like" }

// Serialize implements Serializer.
func (g *GSOAPLike) Serialize(m *wire.Message) []byte {
	g.buf = g.grammar.AppendMessage(g.buf[:0], m, g.Conv)
	return g.buf
}

// ---------------------------------------------------------------------
// XSOAP-like: build a document object tree, then stringify it.
// ---------------------------------------------------------------------

// node is one element of the intermediate document tree.
type node struct {
	tag      string
	attrs    []string // pre-rendered ` k="v"` fragments
	text     string   // leaf text (boxed value)
	children []*node
}

// XSOAPLike is a DOM-building full serializer in the style of the Java
// XSOAP/SoapRMI implementations: every element is an allocated object
// and every value is boxed into a string before the output pass. The
// zero value is ready to use.
type XSOAPLike struct {
	// Conv is the double converter (the zero value is the default one).
	Conv fastconv.Converter
}

// Name implements Serializer.
func (x *XSOAPLike) Name() string { return "XSOAP-like" }

// Serialize implements Serializer.
func (x *XSOAPLike) Serialize(m *wire.Message) []byte {
	op := &node{tag: "ns1:" + m.Operation()}
	leaf := 0
	for _, p := range m.Params() {
		var pn *node
		switch p.Type.Kind {
		case wire.Array:
			pn = &node{tag: p.Name, attrs: []string{
				` xsi:type="SOAP-ENC:Array"`,
				` SOAP-ENC:arrayType="` + p.Type.Elem.Name + `[` + strconv.Itoa(p.Count) + `]"`,
			}}
			for i := 0; i < p.Count; i++ {
				var c *node
				c, leaf = x.valueNode(m, p.Type.Elem, soapenv.ItemTag, leaf)
				pn.children = append(pn.children, c)
			}
		case wire.Struct:
			pn = &node{tag: p.Name, attrs: []string{` xsi:type="` + p.Type.Name + `"`}}
			for _, f := range p.Type.Fields {
				var c *node
				c, leaf = x.valueNode(m, f.Type, f.Name, leaf)
				pn.children = append(pn.children, c)
			}
		default:
			var c *node
			c, leaf = x.valueNode(m, p.Type, p.Name, leaf)
			c.attrs = []string{` xsi:type="` + p.Type.Name + `"`}
			pn = c
		}
		op.children = append(op.children, pn)
	}

	// Second pass: stringify the tree.
	out := make([]byte, 0, 4096)
	out = append(out, soapenv.EnvelopeStart(m)...)
	out = render(out, op)
	out = append(out, soapenv.EnvelopeEnd...)
	return out
}

// valueNode boxes one value (or struct of values) into tree nodes.
func (x *XSOAPLike) valueNode(m *wire.Message, t *wire.Type, tag string, leaf int) (*node, int) {
	n := &node{tag: tag}
	if t.Kind == wire.Struct {
		for _, f := range t.Fields {
			var c *node
			c, leaf = x.valueNode(m, f.Type, f.Name, leaf)
			n.children = append(n.children, c)
		}
		return n, leaf
	}
	// Box the value into a string, as a Java serializer converts each
	// primitive to java.lang.String before writing.
	switch t.Kind {
	case wire.Int:
		n.text = strconv.FormatInt(int64(m.LeafInt(leaf)), 10)
	case wire.Double:
		var tmp [xsdlex.MaxDoubleWidth]byte
		w := x.Conv.WriteDouble(tmp[:], m.LeafDouble(leaf))
		n.text = string(tmp[:w])
	case wire.Bool:
		n.text = strconv.FormatBool(m.LeafBool(leaf))
	case wire.String:
		n.text = string(xsdlex.EscapeText(nil, m.LeafString(leaf)))
	}
	return n, leaf + 1
}

// render stringifies the node tree depth-first.
func render(out []byte, n *node) []byte {
	out = append(out, '<')
	out = append(out, n.tag...)
	for _, a := range n.attrs {
		out = append(out, a...)
	}
	out = append(out, '>')
	for _, c := range n.children {
		out = render(out, c)
	}
	out = append(out, n.text...)
	out = append(out, '<', '/')
	out = append(out, n.tag...)
	out = append(out, '>')
	return out
}
