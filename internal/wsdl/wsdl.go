// Package wsdl generates and parses WSDL 1.1 service descriptions for
// the operations this library serves. The paper situates SOAP inside
// the Web Services architecture, where "WSDL provides a precise
// description of a Web Service interface"; this package lets a bsoap
// service publish that description and a client recover the operation
// schemas (soapdec.Schema) needed to call it.
//
// The supported subset is the RPC/encoded style the rest of the
// repository speaks: scalar parts, struct complexTypes (sequences of
// scalars or structs) and item-sequence array types.
package wsdl

import (
	"fmt"
	"sort"
	"strings"

	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
	"bsoap/internal/xmlwr"
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

// Generate renders the WSDL document for svc.
func Generate(svc *Service) ([]byte, error) {
	if svc.Name == "" || svc.Namespace == "" {
		return nil, fmt.Errorf("wsdl: service needs a name and namespace")
	}
	for _, op := range svc.Operations {
		if op.Namespace != svc.Namespace {
			return nil, fmt.Errorf("wsdl: operation %q namespace %q differs from service namespace %q",
				op.Op, op.Namespace, svc.Namespace)
		}
	}

	w := xmlwr.NewWriter(4096)
	w.Decl()
	w.Start("definitions").
		Attr("name", svc.Name).
		Attr("targetNamespace", svc.Namespace).
		Attr("xmlns", nsWSDL).
		Attr("xmlns:soap", nsSOAP).
		Attr("xmlns:xsd", nsXSD).
		Attr("xmlns:tns", svc.Namespace)

	if err := writeTypes(w, svc); err != nil {
		return nil, err
	}

	// Messages: one per operation, one part per parameter.
	for _, op := range svc.Operations {
		w.Start("message").Attr("name", op.Op+"Request")
		for _, p := range op.Params {
			w.Start("part").Attr("name", p.Name).Attr("type", typeRef(p.Type)).End()
		}
		w.End()
	}

	// Port type.
	w.Start("portType").Attr("name", svc.Name+"PortType")
	for _, op := range svc.Operations {
		w.Start("operation").Attr("name", op.Op).
			Start("input").Attr("message", "tns:"+op.Op+"Request").End().
			End()
	}
	w.End()

	// Binding: RPC over HTTP.
	w.Start("binding").Attr("name", svc.Name+"Binding").Attr("type", "tns:"+svc.Name+"PortType")
	w.Start("soap:binding").Attr("style", "rpc").
		Attr("transport", "http://schemas.xmlsoap.org/soap/http").End()
	for _, op := range svc.Operations {
		w.Start("operation").Attr("name", op.Op).
			Start("soap:operation").Attr("soapAction", "").End().
			End()
	}
	w.End()

	// Service and port.
	w.Start("service").Attr("name", svc.Name).
		Start("port").Attr("name", svc.Name+"Port").Attr("binding", "tns:"+svc.Name+"Binding").
		Start("soap:address").Attr("location", svc.Endpoint).End().
		End().
		End()

	w.End() // definitions
	return w.Result()
}

// typeRef renders a parameter type reference: xsd scalars stay
// qualified; structs use tns:<local>; arrays use tns:ArrayOf<elem>.
func typeRef(t *wire.Type) string {
	switch t.Kind {
	case wire.Array:
		return "tns:ArrayOf" + localTypeName(t.Elem)
	case wire.Struct:
		return "tns:" + localTypeName(t)
	default:
		return t.Name // e.g. xsd:double
	}
}

// localTypeName strips any namespace prefix from a schema type name.
func localTypeName(t *wire.Type) string {
	if t.Kind.Scalar() {
		return xmlparse.Local(t.Name)
	}
	return xmlparse.Local(t.Name)
}

// writeTypes emits the xsd:schema with every struct and array
// complexType reachable from the operations, deterministically ordered.
func writeTypes(w *xmlwr.Writer, svc *Service) error {
	structs := map[string]*wire.Type{}
	arrays := map[string]*wire.Type{}
	var collect func(t *wire.Type) error
	collect = func(t *wire.Type) error {
		switch t.Kind {
		case wire.Array:
			name := "ArrayOf" + localTypeName(t.Elem)
			if prev, ok := arrays[name]; ok && prev.Elem != t.Elem {
				return fmt.Errorf("wsdl: conflicting array element types for %s", name)
			}
			arrays[name] = t
			return collect(t.Elem)
		case wire.Struct:
			name := localTypeName(t)
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
				return err
			}
		}
	}
	if len(structs) == 0 && len(arrays) == 0 {
		return nil
	}

	w.Start("types")
	w.Start("xsd:schema").Attr("targetNamespace", svc.Namespace)
	for _, name := range sortedKeys(structs) {
		t := structs[name]
		w.Start("xsd:complexType").Attr("name", name)
		w.Start("xsd:sequence")
		for _, f := range t.Fields {
			w.Start("xsd:element").Attr("name", f.Name).Attr("type", typeRef(f.Type)).End()
		}
		w.End() // sequence
		w.End() // complexType
	}
	for _, name := range sortedKeys(arrays) {
		t := arrays[name]
		w.Start("xsd:complexType").Attr("name", name)
		w.Start("xsd:sequence")
		w.Start("xsd:element").Attr("name", "item").Attr("type", typeRef(t.Elem)).
			Attr("minOccurs", "0").Attr("maxOccurs", "unbounded").End()
		w.End()
		w.End()
	}
	w.End() // schema
	w.End() // types
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

// rawType is a complexType before resolution.
type rawType struct {
	name     string
	isArray  bool
	elemRef  string   // array element type reference
	fields   []string // struct field names
	fieldRef []string // struct field type references
}

// Parse recovers the service description from a WSDL document produced
// by Generate (or a compatible subset).
func Parse(doc []byte) (*Service, error) {
	p := xmlparse.NewParser(doc)
	tok, err := p.ExpectStart("definitions")
	if err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	svc := &Service{}
	for _, a := range tok.Attrs {
		switch localName(a.Name) {
		case "name":
			if string(a.Name) == "name" {
				svc.Name = string(a.Value)
			}
		case "targetNamespace":
			svc.Namespace = string(a.Value)
		}
	}
	if svc.Namespace == "" {
		return nil, fmt.Errorf("wsdl: definitions without targetNamespace")
	}

	raw := map[string]*rawType{}
	type rawPart struct{ name, ref string }
	messages := map[string][]rawPart{}
	var opOrder []string // operation names in portType order

	for {
		tok, err := p.NextNonSpace()
		if err != nil {
			return nil, fmt.Errorf("wsdl: %w", err)
		}
		if tok.Kind == xmlparse.EndElement {
			break // </definitions>
		}
		if tok.Kind != xmlparse.StartElement {
			return nil, fmt.Errorf("wsdl: unexpected %v at top level", tok.Kind)
		}
		switch localName(tok.Name) {
		case "types":
			if err := parseTypes(p, raw); err != nil {
				return nil, err
			}
		case "message":
			name := attr(tok.Attrs, "name")
			var parts []rawPart
			if err := eachChild(p, func(c *xmlparse.Token) error {
				if localName(c.Name) != "part" {
					return p.SkipElement()
				}
				parts = append(parts, rawPart{attr(c.Attrs, "name"), attr(c.Attrs, "type")})
				return p.SkipElement()
			}); err != nil {
				return nil, err
			}
			messages[name] = parts
		case "portType":
			if err := eachChild(p, func(c *xmlparse.Token) error {
				if localName(c.Name) == "operation" {
					opOrder = append(opOrder, attr(c.Attrs, "name"))
				}
				return p.SkipElement()
			}); err != nil {
				return nil, err
			}
		case "service":
			if svc.Name == "" {
				svc.Name = attr(tok.Attrs, "name")
			}
			loc, err := findAddress(p)
			if err != nil {
				return nil, err
			}
			if loc != "" {
				svc.Endpoint = loc
			}
		default:
			if err := p.SkipElement(); err != nil {
				return nil, fmt.Errorf("wsdl: %w", err)
			}
		}
	}

	// Resolve complexTypes, then operations.
	resolved := map[string]*wire.Type{}
	var resolve func(ref string, depth int) (*wire.Type, error)
	resolve = func(ref string, depth int) (*wire.Type, error) {
		if depth > 32 {
			return nil, fmt.Errorf("wsdl: type reference cycle at %q", ref)
		}
		local := xmlparse.Local(ref)
		switch local {
		case "int":
			return wire.TInt, nil
		case "double", "float":
			return wire.TDouble, nil
		case "string":
			return wire.TString, nil
		case "boolean":
			return wire.TBool, nil
		}
		if t, ok := resolved[local]; ok {
			return t, nil
		}
		rt, ok := raw[local]
		if !ok {
			return nil, fmt.Errorf("wsdl: unresolved type reference %q", ref)
		}
		if rt.isArray {
			elem, err := resolve(rt.elemRef, depth+1)
			if err != nil {
				return nil, err
			}
			t := wire.ArrayOf(elem)
			resolved[local] = t
			return t, nil
		}
		fields := make([]wire.Field, len(rt.fields))
		for i := range rt.fields {
			ft, err := resolve(rt.fieldRef[i], depth+1)
			if err != nil {
				return nil, err
			}
			fields[i] = wire.Field{Name: rt.fields[i], Type: ft}
		}
		t := wire.StructOf("ns1:"+local, fields...)
		resolved[local] = t
		return t, nil
	}

	for _, opName := range opOrder {
		parts, ok := messages[opName+"Request"]
		if !ok {
			return nil, fmt.Errorf("wsdl: operation %q has no %sRequest message", opName, opName)
		}
		schema := &soapdec.Schema{Namespace: svc.Namespace, Op: opName}
		for _, part := range parts {
			t, err := resolve(part.ref, 0)
			if err != nil {
				return nil, fmt.Errorf("wsdl: operation %q part %q: %w", opName, part.name, err)
			}
			schema.Params = append(schema.Params, soapdec.ParamSpec{Name: part.name, Type: t})
		}
		svc.Operations = append(svc.Operations, schema)
	}
	return svc, nil
}

// parseTypes consumes <types> collecting complexType declarations.
func parseTypes(p *xmlparse.Parser, raw map[string]*rawType) error {
	return eachChild(p, func(schemaTok *xmlparse.Token) error {
		if localName(schemaTok.Name) != "schema" {
			return p.SkipElement()
		}
		return eachChild(p, func(ct *xmlparse.Token) error {
			if localName(ct.Name) != "complexType" {
				return p.SkipElement()
			}
			rt := &rawType{name: attr(ct.Attrs, "name")}
			if rt.name == "" {
				return fmt.Errorf("wsdl: anonymous complexType")
			}
			err := eachChild(p, func(seq *xmlparse.Token) error {
				if localName(seq.Name) != "sequence" {
					return p.SkipElement()
				}
				return eachChild(p, func(el *xmlparse.Token) error {
					if localName(el.Name) != "element" {
						return p.SkipElement()
					}
					name := attr(el.Attrs, "name")
					ref := attr(el.Attrs, "type")
					if attr(el.Attrs, "maxOccurs") == "unbounded" {
						rt.isArray = true
						rt.elemRef = ref
					} else {
						rt.fields = append(rt.fields, name)
						rt.fieldRef = append(rt.fieldRef, ref)
					}
					return p.SkipElement()
				})
			})
			if err != nil {
				return err
			}
			raw[rt.name] = rt
			return nil
		})
	})
}

// findAddress walks a <service> element for soap:address/@location.
func findAddress(p *xmlparse.Parser) (string, error) {
	var loc string
	err := eachChild(p, func(port *xmlparse.Token) error {
		if localName(port.Name) != "port" {
			return p.SkipElement()
		}
		return eachChild(p, func(addr *xmlparse.Token) error {
			if localName(addr.Name) == "address" {
				loc = attr(addr.Attrs, "location")
			}
			return p.SkipElement()
		})
	})
	return loc, err
}

// eachChild invokes fn for every child element of the element whose
// StartElement was just consumed; fn must consume the child completely
// (e.g. via SkipElement or nested eachChild). eachChild consumes the
// parent's EndElement.
func eachChild(p *xmlparse.Parser, fn func(tok *xmlparse.Token) error) error {
	for {
		tok, err := p.NextNonSpace()
		if err != nil {
			return fmt.Errorf("wsdl: %w", err)
		}
		switch tok.Kind {
		case xmlparse.EndElement:
			return nil
		case xmlparse.StartElement:
			if err := fn(tok); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wsdl: unexpected %v", tok.Kind)
		}
	}
}

// localName is a token name's local part as a string. Tokens are views into
// the document; the service description outlives it, so everything this
// package keeps of a token goes through localName or attr.
func localName(name []byte) string { return string(xmlparse.Local(name)) }

// attr finds an attribute by local name.
func attr(attrs []xmlparse.Attr, name string) string {
	for _, a := range attrs {
		if localName(a.Name) == name {
			return string(a.Value)
		}
	}
	return ""
}

// EqualSchemas reports whether two operation schemas are structurally
// identical (used by round-trip tests and clients validating a fetched
// WSDL against their expectations).
func EqualSchemas(a, b *soapdec.Schema) bool {
	if a.Op != b.Op || a.Namespace != b.Namespace || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i].Name != b.Params[i].Name {
			return false
		}
		var sa, sb strings.Builder
		a.Params[i].Type.Signature(&sa)
		b.Params[i].Type.Signature(&sb)
		if sa.String() != sb.String() {
			return false
		}
	}
	return true
}
