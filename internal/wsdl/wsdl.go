// Package wsdl generates, parses and fetches WSDL 1.1 service
// descriptions for the operations this library serves. The paper
// situates SOAP inside the Web Services architecture, where "WSDL
// provides a precise description of a Web Service interface"; this
// package lets a bsoap service publish that description and a client
// recover the operation schemas (soapdec.Schema) needed to call it.
//
// The supported subset is the RPC/encoded style the rest of the
// repository speaks: scalar parts, struct complexTypes (sequences of
// scalars or structs) and item-sequence array types. A description is
// written once at server start-up and read once at client discovery, so
// none of the per-call cost the paper measures is spent here: the
// standard library parses it (encoding/xml) and fetches it (net/http).
package wsdl

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Service describes one SOAP service: its operations plus addressing.
type Service struct {
	// Name is the WSDL service name.
	Name string
	// Namespace is the target namespace (must match the operations').
	Namespace string
	// Endpoint is the soap:address location.
	Endpoint string
	// Operations lists the request schemas.
	Operations []*soapdec.Schema
}

// namespace URIs used in generated documents.
const (
	nsWSDL = "http://schemas.xmlsoap.org/wsdl/"
	nsSOAP = "http://schemas.xmlsoap.org/wsdl/soap/"
	nsXSD  = "http://www.w3.org/2001/XMLSchema"
)

// node is one element of a generated document: attrs are name, value
// pairs, and an element without kids is written self-closed.
type node struct {
	name  string
	attrs []string
	kids  []node
}

func (n node) appendTo(b []byte) []byte {
	b = append(append(b, '<'), n.name...)
	for i := 0; i+1 < len(n.attrs); i += 2 {
		b = append(append(append(b, ' '), n.attrs[i]...), '=', '"')
		b = append(xsdlex.EscapeText(b, n.attrs[i+1]), '"')
	}
	if len(n.kids) == 0 {
		return append(b, '/', '>')
	}
	b = append(b, '>')
	for _, k := range n.kids {
		b = k.appendTo(b)
	}
	return append(append(append(b, '<', '/'), n.name...), '>')
}

// Generate renders the WSDL document for svc.
func Generate(svc *Service) ([]byte, error) {
	if svc.Name == "" || svc.Namespace == "" {
		return nil, fmt.Errorf("wsdl: service needs a name and namespace")
	}
	root := node{name: "definitions", attrs: []string{
		"name", svc.Name, "targetNamespace", svc.Namespace, "xmlns", nsWSDL,
		"xmlns:soap", nsSOAP, "xmlns:xsd", nsXSD, "xmlns:tns", svc.Namespace}}
	types, err := typesNode(svc)
	if err != nil {
		return nil, err
	}
	if types.kids != nil {
		root.kids = append(root.kids, types)
	}
	portType := node{name: "portType", attrs: []string{"name", svc.Name + "PortType"}}
	binding := node{name: "binding", attrs: []string{"name", svc.Name + "Binding", "type", "tns:" + svc.Name + "PortType"},
		kids: []node{{name: "soap:binding", attrs: []string{"style", "rpc", "transport", "http://schemas.xmlsoap.org/soap/http"}}}}
	for _, op := range svc.Operations {
		if op.Namespace != svc.Namespace {
			return nil, fmt.Errorf("wsdl: operation %q namespace %q differs from service namespace %q",
				op.Op, op.Namespace, svc.Namespace)
		}
		// A message per operation, a part per parameter.
		msg := node{name: "message", attrs: []string{"name", op.Op + "Request"}}
		for _, p := range op.Params {
			msg.kids = append(msg.kids, node{name: "part", attrs: []string{"name", p.Name, "type", typeRef(p.Type)}})
		}
		root.kids = append(root.kids, msg)
		portType.kids = append(portType.kids, node{name: "operation", attrs: []string{"name", op.Op},
			kids: []node{{name: "input", attrs: []string{"message", "tns:" + op.Op + "Request"}}}})
		binding.kids = append(binding.kids, node{name: "operation", attrs: []string{"name", op.Op},
			kids: []node{{name: "soap:operation", attrs: []string{"soapAction", ""}}}})
	}
	root.kids = append(root.kids, portType, binding, node{name: "service", attrs: []string{"name", svc.Name},
		kids: []node{{name: "port", attrs: []string{"name", svc.Name + "Port", "binding", "tns:" + svc.Name + "Binding"},
			kids: []node{{name: "soap:address", attrs: []string{"location", svc.Endpoint}}}}}})
	return root.appendTo(append(make([]byte, 0, 4096), `<?xml version="1.0" encoding="UTF-8"?>`+"\n"...)), nil
}

// typeRef renders a parameter type reference: xsd scalars stay
// qualified; structs use tns:<local>; arrays use tns:ArrayOf<elem>.
func typeRef(t *wire.Type) string {
	switch t.Kind {
	case wire.Array:
		return "tns:ArrayOf" + local(t.Elem.Name)
	case wire.Struct:
		return "tns:" + local(t.Name)
	default:
		return t.Name // e.g. xsd:double
	}
}

// local strips any namespace prefix from a qualified name.
func local(name string) string {
	return name[strings.LastIndexByte(name, ':')+1:]
}

// typesNode is the types element, holding an xsd:schema with every
// struct and array complexType reachable from the operations in a
// deterministic order; it has no kids when there are none.
func typesNode(svc *Service) (node, error) {
	structs := map[string]*wire.Type{}
	arrays := map[string]*wire.Type{}
	var collect func(t *wire.Type) error
	collect = func(t *wire.Type) error {
		switch t.Kind {
		case wire.Array:
			name := "ArrayOf" + local(t.Elem.Name)
			if prev, ok := arrays[name]; ok && prev.Elem != t.Elem {
				return fmt.Errorf("wsdl: conflicting array element types for %s", name)
			}
			arrays[name] = t
			return collect(t.Elem)
		case wire.Struct:
			name := local(t.Name)
			if prev, ok := structs[name]; ok && prev != t {
				return fmt.Errorf("wsdl: two distinct struct types named %s", name)
			}
			structs[name] = t
			for _, f := range t.Fields {
				if err := collect(f.Type); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, op := range svc.Operations {
		for _, p := range op.Params {
			if err := collect(p.Type); err != nil {
				return node{}, err
			}
		}
	}
	schema := node{name: "xsd:schema", attrs: []string{"targetNamespace", svc.Namespace}}
	complexType := func(name string, elems ...node) {
		schema.kids = append(schema.kids, node{name: "xsd:complexType", attrs: []string{"name", name},
			kids: []node{{name: "xsd:sequence", kids: elems}}})
	}
	for _, name := range sortedKeys(structs) {
		var elems []node
		for _, f := range structs[name].Fields {
			elems = append(elems, node{name: "xsd:element", attrs: []string{"name", f.Name, "type", typeRef(f.Type)}})
		}
		complexType(name, elems...)
	}
	for _, name := range sortedKeys(arrays) {
		if _, ok := structs[name]; ok {
			return node{}, fmt.Errorf("wsdl: a struct type and an array type both named %s", name)
		}
		complexType(name, node{name: "xsd:element", attrs: []string{"name", "item", "type", typeRef(arrays[name].Elem),
			"minOccurs", "0", "maxOccurs", "unbounded"}})
	}
	if schema.kids == nil {
		return node{}, nil
	}
	return node{name: "types", kids: []node{schema}}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse recovers the service description from a WSDL document produced
// by Generate (or a compatible subset). Operations come in portType
// order, the name falls back to the service element's, and the endpoint
// is the last non-empty soap:address. Well-formedness is encoding/xml's;
// text between elements is ignored, since the description is data, not
// framing.
func Parse(doc []byte) (*Service, error) {
	// The document as encoding/xml reads it. Tags name local parts only,
	// so any prefix binding of the WSDL, XSD and SOAP namespaces is
	// accepted; elements off these paths are skipped. One shape serves
	// the complexTypes, messages and services, each filling its own
	// children.
	type leaf struct {
		Name      string `xml:"name,attr"`
		Type      string `xml:"type,attr"`
		MaxOccurs string `xml:"maxOccurs,attr"`
		Location  string `xml:"location,attr"`
	}
	type group struct {
		Name      string `xml:"name,attr"`
		Elements  []leaf `xml:"sequence>element"`
		Parts     []leaf `xml:"part"`
		Addresses []leaf `xml:"port>address"`
	}
	var d struct {
		XMLName   xml.Name `xml:"definitions"`
		Name      string   `xml:"name,attr"`
		Namespace string   `xml:"targetNamespace,attr"`
		Types     []group  `xml:"types>schema>complexType"`
		Messages  []group  `xml:"message"`
		Ops       []leaf   `xml:"portType>operation"`
		Services  []group  `xml:"service"`
	}
	if err := xml.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	if d.Namespace == "" {
		return nil, fmt.Errorf("wsdl: definitions without targetNamespace")
	}
	svc := &Service{Name: d.Name, Namespace: d.Namespace}
	for _, s := range d.Services {
		if svc.Name == "" {
			svc.Name = s.Name
		}
		for _, a := range s.Addresses {
			if a.Location != "" {
				svc.Endpoint = a.Location
			}
		}
	}
	raw := map[string][]leaf{}
	for _, ct := range d.Types {
		if ct.Name == "" {
			return nil, fmt.Errorf("wsdl: anonymous complexType")
		}
		raw[ct.Name] = ct.Elements
	}
	messages := map[string][]leaf{}
	for _, m := range d.Messages {
		messages[m.Name] = m.Parts
	}

	// Resolve complexTypes, then operations. An unbounded element makes
	// its type an item sequence (of the last such element's type), and a
	// type of bounded elements only is a struct.
	resolved := map[string]*wire.Type{}
	var resolve func(ref string, depth int) (*wire.Type, error)
	resolve = func(ref string, depth int) (*wire.Type, error) {
		if depth > 32 {
			return nil, fmt.Errorf("wsdl: type reference cycle at %q", ref)
		}
		name := local(ref)
		switch name {
		case "int":
			return wire.TInt, nil
		case "double", "float":
			return wire.TDouble, nil
		case "string":
			return wire.TString, nil
		case "boolean":
			return wire.TBool, nil
		}
		if t, ok := resolved[name]; ok {
			return t, nil
		}
		elems, ok := raw[name]
		if !ok {
			return nil, fmt.Errorf("wsdl: unresolved type reference %q", ref)
		}
		var item *wire.Type
		var fields []wire.Field
		for _, el := range elems {
			t, err := resolve(el.Type, depth+1)
			if err != nil {
				return nil, err
			}
			if t.Kind == wire.Array {
				return nil, fmt.Errorf("wsdl: complexType %q nests an array", name)
			}
			if el.MaxOccurs == "unbounded" {
				item = t
			} else {
				fields = append(fields, wire.Field{Name: el.Name, Type: t})
			}
		}
		switch {
		case item != nil:
			resolved[name] = wire.ArrayOf(item)
		case fields != nil:
			resolved[name] = wire.StructOf("ns1:"+name, fields...)
		default:
			return nil, fmt.Errorf("wsdl: complexType %q has no elements", name)
		}
		return resolved[name], nil
	}

	for _, op := range d.Ops {
		parts, ok := messages[op.Name+"Request"]
		if !ok {
			return nil, fmt.Errorf("wsdl: operation %q has no %sRequest message", op.Name, op.Name)
		}
		schema := &soapdec.Schema{Namespace: svc.Namespace, Op: op.Name}
		for _, part := range parts {
			t, err := resolve(part.Type, 0)
			if err != nil {
				return nil, fmt.Errorf("wsdl: operation %q part %q: %w", op.Name, part.Name, err)
			}
			schema.Params = append(schema.Params, soapdec.ParamSpec{Name: part.Name, Type: t})
		}
		svc.Operations = append(svc.Operations, schema)
	}
	return svc, nil
}

// Fetch retrieves and parses the description a server publishes at
// http://addr/?wsdl.
func Fetch(addr string) (*Service, error) {
	return fetch(addr, 10*time.Second)
}

// fetch is Fetch with the time allowed for the whole exchange: a peer
// that accepts and never answers fails the caller instead of hanging it.
func fetch(addr string, timeout time.Duration) (*Service, error) {
	resp, err := (&http.Client{Timeout: timeout}).Get("http://" + addr + "/?wsdl")
	if err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s answered %s", addr, resp.Status)
	}
	if err != nil {
		return nil, fmt.Errorf("wsdl: fetch: %w", err)
	}
	return Parse(doc)
}
