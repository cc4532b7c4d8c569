package rpc

import (
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/wsdl"
)

// startCalc starts a sum service with WSDL, returning its address and
// a closer.
func startCalc(t *testing.T) (string, *serverpool.Runtime, func()) {
	t.Helper()
	endpoint := serverpool.New(serverpool.Options{DifferentialDeserialization: true})
	resp := wire.NewMessage("urn:calc", "sumResponse")
	total := resp.AddDouble("total", 0)
	schema := &soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sum",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}
	endpoint.RegisterShared(schema, func(req *wire.Message) (*wire.Message, error) {
		var s float64
		for i := 0; i < req.NumLeaves(); i++ {
			s += req.LeafDouble(i)
		}
		total.Set(s)
		return resp, nil
	})
	doc, err := wsdl.Generate(&wsdl.Service{
		Name: "Calc", Namespace: "urn:calc", Endpoint: "http://x/",
		Operations: []*soapdec.Schema{schema},
	})
	if err != nil {
		t.Fatal(err)
	}
	endpoint.SetWSDL(doc)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: endpoint.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Addr(), endpoint, func() { srv.Close() }
}

func sumResponseSchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sumResponse",
		Params:    []soapdec.ParamSpec{{Name: "total", Type: wire.TDouble}},
	}
}

func TestCallRoundTrip(t *testing.T) {
	addr, _, closeSrv := startCalc(t)
	defer closeSrv()

	c, err := Dial(addr, core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ExpectResponse(sumResponseSchema())

	req := wire.NewMessage("urn:calc", "sum")
	arr := req.AddDoubleArray("values", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, float64(i)) // 0+1+…+9 = 45
	}
	resp, ci, err := c.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.FirstTime {
		t.Fatalf("first call: %v", ci.Match)
	}
	if resp.LeafDouble(0) != 45 {
		t.Fatalf("total = %g", resp.LeafDouble(0))
	}

	arr.Set(0, 100) // 145
	resp, ci, err = c.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.StructuralMatch || ci.ValuesRewritten != 1 {
		t.Fatalf("second call: %+v", ci)
	}
	if resp.LeafDouble(0) != 145 {
		t.Fatalf("total = %g", resp.LeafDouble(0))
	}
}

func TestDiscoverAndDial(t *testing.T) {
	addr, _, closeSrv := startCalc(t)
	defer closeSrv()

	c, svc, err := DiscoverAndDial(addr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if svc.Name != "Calc" || len(svc.Operations) != 1 {
		t.Fatalf("discovered: %+v", svc)
	}
	c.ExpectResponse(sumResponseSchema())

	// Build the request from the discovered schema.
	op := svc.Operations[0]
	req := wire.NewMessage(op.Namespace, op.Op)
	for _, p := range op.Params {
		if p.Type.Kind == wire.Array && p.Type.Elem == wire.TDouble {
			arr := req.AddDoubleArray(p.Name, 3)
			arr.Fill([]float64{1, 2, 3.5})
		}
	}
	resp, _, err := c.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.LeafDouble(0) != 6.5 {
		t.Fatalf("total = %g", resp.LeafDouble(0))
	}
}

func TestUnknownResponseSchemaErrors(t *testing.T) {
	addr, _, closeSrv := startCalc(t)
	defer closeSrv()
	c, err := Dial(addr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No ExpectResponse registered.
	req := wire.NewMessage("urn:calc", "sum")
	req.AddDoubleArray("values", 1)
	if _, _, err := c.Call(req); err == nil {
		t.Fatal("unknown response schema accepted")
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	addr, _, closeSrv := startCalc(t)
	defer closeSrv()
	c, err := Dial(addr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := wire.NewMessage("urn:calc", "nosuchop")
	req.AddInt("x", 1)
	if _, _, err := c.Call(req); err == nil {
		t.Fatal("unknown operation did not error")
	}
}

func TestStatsAccumulateAcrossCalls(t *testing.T) {
	addr, endpoint, closeSrv := startCalc(t)
	defer closeSrv()
	c, err := Dial(addr, core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ExpectResponse(sumResponseSchema())

	req := wire.NewMessage("urn:calc", "sum")
	arr := req.AddDoubleArray("values", 50)
	for i := 0; i < 50; i++ {
		arr.Set(i, 1)
	}
	for k := 0; k < 5; k++ {
		arr.Set(k, float64(k+2))
		if _, _, err := c.Call(req); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Calls != 5 || st.FirstTimeSends != 1 {
		t.Fatalf("client stats: %+v", st)
	}
	ss := endpoint.Stats()
	if ss.DiffDecodes != 4 {
		t.Fatalf("server stats: %+v", ss)
	}
}

func TestRawResponseAndDiscoverErrors(t *testing.T) {
	addr, _, closeSrv := startCalc(t)
	defer closeSrv()
	c, err := Dial(addr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ExpectResponse(sumResponseSchema())
	req := wire.NewMessage("urn:calc", "sum")
	req.AddDoubleArray("values", 2)
	if _, _, err := c.Call(req); err != nil {
		t.Fatal(err)
	}
	if len(c.RawResponse()) == 0 {
		t.Fatal("no raw response retained")
	}
	// Discovery against a dead endpoint fails cleanly.
	if _, _, err := DiscoverAndDial("127.0.0.1:1", core.Config{}); err == nil {
		t.Fatal("discovery against closed port succeeded")
	}
}
