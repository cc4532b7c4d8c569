// Command bsoap-wsdl works with WSDL service descriptions.
//
//	bsoap-wsdl -service mcs               # print a built-in service's WSDL
//	bsoap-wsdl -fetch 127.0.0.1:9999      # fetch a live endpoint's WSDL and summarize it
//	bsoap-wsdl -validate service.wsdl     # parse a WSDL file and summarize it
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bsoap/internal/classad"
	"bsoap/internal/mcs"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/wsdl"
)

func main() {
	var (
		service  = flag.String("service", "", "print WSDL for a built-in service: calc | mcs | flock")
		fetch    = flag.String("fetch", "", "fetch WSDL from host:port and summarize")
		validate = flag.String("validate", "", "parse a WSDL file and summarize")
	)
	flag.Parse()

	switch {
	case *service != "":
		doc, err := builtinWSDL(*service)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		fmt.Println()
	case *fetch != "":
		svc, err := wsdl.Fetch(*fetch)
		if err != nil {
			fatal(err)
		}
		summarize(svc)
	case *validate != "":
		doc, err := os.ReadFile(*validate)
		if err != nil {
			fatal(err)
		}
		svc, err := wsdl.Parse(doc)
		if err != nil {
			fatal(fmt.Errorf("invalid WSDL: %w", err))
		}
		summarize(svc)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// builtinWSDL renders the description of one of the bundled services.
func builtinWSDL(name string) ([]byte, error) {
	switch name {
	case "calc":
		return wsdl.Generate(&wsdl.Service{
			Name: "Calc", Namespace: "urn:calc", Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{{
				Namespace: "urn:calc", Op: "sum",
				Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
			}},
		})
	case "mcs":
		return wsdl.Generate(&wsdl.Service{
			Name: "MetadataCatalog", Namespace: mcs.Namespace, Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{mcs.AddSchema(), mcs.QuerySchema(), mcs.DeleteSchema()},
		})
	case "flock":
		return wsdl.Generate(&wsdl.Service{
			Name: "FlockCollector", Namespace: classad.Namespace, Endpoint: "http://localhost:9999/",
			Operations: []*soapdec.Schema{{
				Namespace: classad.Namespace, Op: "flockUpdate",
				Params: []soapdec.ParamSpec{
					{Name: "pool", Type: wire.TString},
					{Name: "ads", Type: wire.ArrayOf(classad.AdType())},
				},
			}},
		})
	}
	return nil, fmt.Errorf("unknown built-in service %q (calc | mcs | flock)", name)
}

// summarize prints a service description and its operations.
func summarize(svc *wsdl.Service) {
	fmt.Printf("service  %s\n", svc.Name)
	fmt.Printf("namespace %s\n", svc.Namespace)
	if svc.Endpoint != "" {
		fmt.Printf("endpoint %s\n", svc.Endpoint)
	}
	fmt.Printf("operations (%d):\n", len(svc.Operations))
	for _, op := range svc.Operations {
		var parts []string
		for _, p := range op.Params {
			var sig strings.Builder
			p.Type.Signature(&sig)
			parts = append(parts, p.Name+": "+sig.String())
		}
		fmt.Printf("  %s(%s)\n", op.Op, strings.Join(parts, ", "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsoap-wsdl:", err)
	os.Exit(1)
}
