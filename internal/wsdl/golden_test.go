package wsdl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bsoap/internal/classad"
	"bsoap/internal/mcs"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// goldenServices are the services bsoap-wsdl -service renders, plus the
// mesh service with an endpoint that needs attribute escaping.
func goldenServices() map[string]*Service {
	mio := sampleService()
	mio.Endpoint = `http://localhost:9999/?a=1&b="2"`
	return map[string]*Service{
		"calc": {
			Name: "Calc", Namespace: "urn:calc", Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{{
				Namespace: "urn:calc", Op: "sum",
				Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
			}},
		},
		"mcs": {
			Name: "MetadataCatalog", Namespace: mcs.Namespace, Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{mcs.AddSchema(), mcs.QuerySchema(), mcs.DeleteSchema()},
		},
		"flock": {
			Name: "FlockCollector", Namespace: classad.Namespace, Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{{
				Namespace: classad.Namespace, Op: "flockUpdate",
				Params: []soapdec.ParamSpec{
					{Name: "pool", Type: wire.TString},
					{Name: "ads", Type: wire.ArrayOf(classad.AdType())},
				},
			}},
		},
		"mio": mio,
	}
}

// TestGenerateGoldens pins Generate's output byte for byte: a change of
// writer must not change a published description.
func TestGenerateGoldens(t *testing.T) {
	for name, svc := range goldenServices() {
		want, err := os.ReadFile(filepath.Join("testdata", name+".wsdl"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Generate(svc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Generate differs from testdata/%s.wsdl:\n%s", name, name, got)
		}
		back, err := Parse(got)
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if back.Name != svc.Name || back.Namespace != svc.Namespace || back.Endpoint != svc.Endpoint {
			t.Errorf("%s: service header %q %q %q", name, back.Name, back.Namespace, back.Endpoint)
		}
		for i, op := range svc.Operations {
			if !EqualSchemas(back.Operations[i], op) {
				t.Errorf("%s: operation %s did not round-trip", name, op.Op)
			}
		}
	}
}
