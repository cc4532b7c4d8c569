package serverpool

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/multiref"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/wsdl"
)

// The endpoint suite: what internal/server's tests asserted of the
// single-mutex endpoint, asserted of the Runtime fed one connection id.

func TestHandleDecodesAndResponds(t *testing.T) {
	rt := newSumRuntime(Options{})
	c := newClient(4)
	c.arr.Fill([]float64{1, 2, 3, 4.5})
	resp, err := rt.Handle(1, "", c.body(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), ">10.5<") {
		t.Fatalf("response: %s", resp)
	}
	if st := rt.Stats(); st.Requests != 1 || st.FullParses != 1 || st.DiffDecodes != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDifferentialDeserializationPath(t *testing.T) {
	rt := newSumRuntime(Options{})
	c := newClient(32)
	for i := 0; i < 32; i++ {
		c.arr.Set(i, 1)
	}
	if _, err := rt.Handle(1, "", c.body(t)); err != nil {
		t.Fatal(err)
	}
	c.arr.Set(3, 100)
	resp, err := rt.Handle(1, "", c.body(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), ">131<") { // 31*1 + 100
		t.Fatalf("response: %s", resp)
	}
	if st := rt.Stats(); st.FullParses != 1 || st.DiffDecodes != 1 || st.ValuesReparsed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDecodesDifferentiallyWithZeroOptions: differential deserialization
// is the one decode mode, so a runtime built with no options serves a
// repeated body on the fast path.
func TestDecodesDifferentiallyWithZeroOptions(t *testing.T) {
	rt := newSumRuntime(Options{})
	body := newClient(8).body(t)
	for i := 0; i < 2; i++ {
		if _, err := rt.Handle(1, "", body); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats(); st.FullParses != 1 || st.DiffDecodes != 1 || st.ValuesReparsed != 0 {
		t.Fatalf("stats %+v, want one full parse, then one differential decode reparsing nothing", st)
	}
}

func TestResponseDifferentialSerialization(t *testing.T) {
	rt := newSumRuntime(Options{})
	body := newClient(2).body(t)
	// Two calls with the same request produce the same total: the second
	// response is a content match on the replica's response stub, and
	// each is handed out in the caller's own storage.
	first, err := rt.Handle(1, "", body)
	if err != nil {
		t.Fatal(err)
	}
	kept := string(first)
	second, err := rt.Handle(1, "", body)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != kept || string(second) != kept {
		t.Fatalf("responses differ or the first was overwritten:\n%s\n%s", first, second)
	}
	if rs := rt.ResponseStats(); rs.FirstTimeSends != 1 || rs.ContentMatches != 1 {
		t.Fatalf("response stats: %+v", rs)
	}
}

func TestUnknownOperationErrors(t *testing.T) {
	c := &client{sink: &captureSink{}}
	c.stub = core.NewStub(core.Config{}, c.sink)
	c.msg = wire.NewMessage("urn:calc", "nosuch")
	c.msg.AddInt("x", 1)
	rt := newSumRuntime(Options{})
	_, err := rt.Handle(1, "", c.body(t))
	if err == nil || !strings.Contains(err.Error(), `unknown operation "nosuch"`) {
		t.Fatalf("unknown operation: %v", err)
	}
	if st := rt.Stats(); st.DiffDecodes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMalformedBodyErrors(t *testing.T) {
	rt := newSumRuntime(Options{})
	if _, err := rt.Handle(1, "", []byte("not xml at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := rt.Handle(1, "", []byte("<a><b>no body</b></a>")); err == nil {
		t.Fatal("bodyless envelope accepted")
	}
}

func TestPeekOperation(t *testing.T) {
	for doc, want := range map[string]string{
		`<E:Envelope><E:Body><ns1:sum><v/></ns1:sum></E:Body></E:Envelope>`: "sum",  // prefixed
		`<Envelope><Body><sum><v/></sum></Body></Envelope>`:                 "sum",  // unprefixed
		`<E:Envelope><E:Body>` + "\n  " + `<op2/></E:Body></E:Envelope>`:    "op2",  // self-closing
		`<E:Body><ns1:sum xmlns:ns1="urn:calc"><v/></ns1:sum></E:Body>`:     "sum",  // attribute after the name
		"<E:Body><ns1:sum\n\txmlns:ns1=\"urn:calc\"/></E:Body>":             "sum",  // any white space ends the name
		`<E:Body><a:b:deep/></E:Body>`:                                      "deep", // last colon wins
		`<E:Body><ns1:sumResponse>`:                                         "sumResponse",
	} {
		body := []byte(doc)
		got, err := peekOperation(body)
		if err != nil || string(got) != want {
			t.Errorf("peekOperation(%q) = %q, %v", doc, got, err)
			continue
		}
		// A view: the name is body's own bytes, not a copy.
		if &got[0] != &body[strings.Index(doc, want)] {
			t.Errorf("peekOperation(%q) copied the name", doc)
		}
	}
	for _, doc := range []string{"", "<no-body/>", `<E:Body>`, `<E:Body>  `, `<E:Body>text`, `<E:Body><>`, `<E:Body><ns1:>`} {
		if got, err := peekOperation([]byte(doc)); err == nil {
			t.Errorf("peekOperation(%q) = %q, want an error", doc, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = peekOperation([]byte(`<E:Envelope><E:Body><ns1:sum><v/></ns1:sum></E:Body></E:Envelope>`))
	}); n != 0 {
		t.Errorf("peekOperation allocates %v times", n)
	}
}

// TestEndToEndOverTCP drives the full stack: bSOAP stub → HTTP sender →
// transport server → runtime dispatch → differential deserialization →
// handler → response → client.
func TestEndToEndOverTCP(t *testing.T) {
	rt := newSumRuntime(Options{})
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: rt.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sender, err := transport.Dial(srv.Addr(), transport.SenderOptions{
		ExpectResponse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	m := wire.NewMessage("urn:calc", "sum")
	arr := m.AddDoubleArray("values", 16)
	for i := 0; i < 16; i++ {
		arr.Set(i, 2)
	}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sender)

	for call := 0; call < 5; call++ {
		arr.Set(call, float64(call)) // small in-place updates
		if _, err := stub.Call(m); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	st := rt.Stats()
	if st.Requests != 5 || st.Replicas != 1 {
		t.Fatalf("server saw %d requests on %d replicas", st.Requests, st.Replicas)
	}
	if st.DiffDecodes != 4 {
		t.Fatalf("diff decodes = %d, want 4 (stats %+v)", st.DiffDecodes, st)
	}
	// Call 2 wrote the value already present (2), so it is a content
	// match; the other updates are structural matches.
	cs := stub.Stats()
	if cs.FirstTimeSends != 1 || cs.StructuralMatches != 3 || cs.ContentMatches != 1 {
		t.Fatalf("client stats: %+v", cs)
	}
}

// headConn records what is written to the connection it wraps.
type headConn struct {
	net.Conn
	mu      *sync.Mutex
	written *bytes.Buffer
}

func (c headConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.written.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestBareStubSendsNoDelta: a delta request is only ever a pooled
// Submit. A bare stub over a Sender with Delta on, talking to a runtime
// that accepts delta, sends every call as a plain full body: no request
// head carries an X-BSoap-Delta header, and the server stores no base.
func TestBareStubSendsNoDelta(t *testing.T) {
	rt := newSumRuntime(Options{Delta: true})
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Handler: rt.HTTPHandler(), Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var written bytes.Buffer
	sender, err := transport.Dial(srv.Addr(), transport.SenderOptions{
		Delta:          true,
		ExpectResponse: true,
		Dialer: func(network, addr string) (net.Conn, error) {
			conn, err := transport.DefaultDialer(network, addr)
			if err != nil {
				return nil, err
			}
			return headConn{Conn: conn, mu: &mu, written: &written}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	m := wire.NewMessage("urn:calc", "sum")
	arr := m.AddDoubleArray("values", 16)
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sender)
	for call := 0; call < 3; call++ {
		arr.Set(call, float64(call+1))
		ci, err := stub.Call(m)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if ci.DeltaSent {
			t.Fatalf("call %d went out as a patch frame", call)
		}
	}
	mu.Lock()
	heads := written.String()
	mu.Unlock()
	if n := strings.Count(heads, "POST "); n != 3 {
		t.Fatalf("%d requests written, want 3", n)
	}
	if strings.Contains(heads, "X-BSoap-Delta") {
		t.Fatalf("a bare send carried a delta header:\n%s", heads)
	}
	if st := rt.Stats(); st.Requests != 3 || st.DeltaSyncs != 0 || st.DeltaApplied != 0 {
		t.Fatalf("server stats %+v, want 3 plain requests", st)
	}
}

// TestMultiRefRequestsAreInlined drives a multi-ref-encoded request
// (the format a gSOAP client emits for shared values) through the
// endpoint and verifies dispatch sees the resolved values.
func TestMultiRefRequestsAreInlined(t *testing.T) {
	rt := New(Options{})
	var seen []string
	resp := wire.NewMessage("urn:mr", "tagResponse")
	count := resp.AddInt("count", 0)
	rt.Register(&soapdec.Schema{
		Namespace: "urn:mr",
		Op:        "tag",
		Params:    []soapdec.ParamSpec{{Name: "labels", Type: wire.ArrayOf(wire.TString)}},
	}, func() Handler {
		return func(req *wire.Message) (*wire.Message, error) {
			seen = seen[:0]
			for i := 0; i < req.NumLeaves(); i++ {
				seen = append(seen, req.LeafString(i))
			}
			count.Set(int32(len(seen)))
			return resp, nil
		}
	})

	// A client using multi-ref encoding for repeated labels.
	m := wire.NewMessage("urn:mr", "tag")
	arr := m.AddStringArray("labels", 6)
	for i := 0; i < 6; i++ {
		arr.Set(i, "shared-label-value-alpha")
	}
	body := multiref.NewEncoder().Serialize(m)
	if !multiref.HasRefs(body) {
		t.Fatal("test setup: no refs emitted")
	}

	respBody, err := rt.Handle(1, "", body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(respBody), ">6<") {
		t.Fatalf("response: %s", respBody)
	}
	for i, s := range seen {
		if s != "shared-label-value-alpha" {
			t.Fatalf("label %d = %q", i, s)
		}
	}
	if st := rt.Stats(); st.MultiRefInlined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMalformedMultiRefRejected verifies dangling references error out
// instead of dispatching garbage.
func TestMalformedMultiRefRejected(t *testing.T) {
	rt := newSumRuntime(Options{})
	body := []byte(`<E:Envelope><E:Body><ns1:sum>` +
		`<values SOAP-ENC:arrayType="xsd:double[1]"><item href="#nope"/></values>` +
		`</ns1:sum></E:Body></E:Envelope>`)
	if _, err := rt.Handle(1, "", body); err == nil {
		t.Fatal("dangling multi-ref accepted")
	}
}

func TestWSDLServedOnGET(t *testing.T) {
	rt := newSumRuntime(Options{})
	doc, err := wsdl.Generate(&wsdl.Service{
		Name:       "Calc",
		Namespace:  "urn:calc",
		Endpoint:   "http://example/",
		Operations: []*soapdec.Schema{sumSchema()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetWSDL(doc)

	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: rt.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A net/http client reads the description on one kept-alive
	// connection, as often as it asks.
	for i := 0; i < 3; i++ {
		resp, err := http.Get("http://" + srv.Addr() + "/?wsdl")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(body, doc) {
			t.Fatalf("GET %d: status %d, %v:\n%s", i, resp.StatusCode, err, body)
		}
	}
	svc, err := wsdl.Fetch(srv.Addr())
	if err != nil {
		t.Fatalf("served WSDL does not fetch: %v", err)
	}
	if svc.Name != "Calc" || len(svc.Operations) != 1 || svc.Operations[0].Op != "sum" {
		t.Fatalf("recovered service: %+v", svc)
	}
	if p := svc.Operations[0].Params[0].Type; p.Kind != wire.Array || p.Elem != wire.TDouble {
		t.Fatalf("array parameter recovered as %+v", p)
	}
	if srv.Requests() != 4 {
		t.Fatalf("%d requests served, want 4", srv.Requests())
	}
}

func TestGETWithoutWSDLErrors(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: newSumRuntime(Options{}).HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// On the wire the handler's error is a 500, and the server survives it.
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + srv.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 500 {
			t.Fatalf("GET without installed WSDL: status %d", resp.StatusCode)
		}
	}
}

// The call path over TCP: a stub writes each request through an
// ExpectResponse sender, and the runtime behind a transport server
// decodes it, differentially from the second request on.

// calcService serves the sum operation and its WSDL on a loopback port.
type calcService struct {
	rt        *Runtime
	addr      string
	totalBits atomic.Uint64 // the last total the handler computed
}

func startCalc(t *testing.T) *calcService {
	t.Helper()
	c := &calcService{rt: New(Options{})}
	c.rt.Register(sumSchema(), func() Handler {
		sum := sumFactory()
		return func(req *wire.Message) (*wire.Message, error) {
			resp, err := sum(req)
			c.totalBits.Store(math.Float64bits(resp.LeafDouble(0)))
			return resp, err
		}
	})
	doc, err := wsdl.Generate(&wsdl.Service{
		Name: "Calc", Namespace: "urn:calc", Endpoint: "http://x/",
		Operations: []*soapdec.Schema{sumSchema()},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.rt.SetWSDL(doc)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: c.rt.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c.addr = srv.Addr()
	return c
}

func (c *calcService) total() float64 { return math.Float64frombits(c.totalBits.Load()) }

// dial opens an ExpectResponse sender to the service, so each call
// returns only once the server has answered it.
func (c *calcService) dial(t *testing.T) *transport.Sender {
	t.Helper()
	s, err := transport.Dial(c.addr, transport.SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	svc := startCalc(t)
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, svc.dial(t))

	req := wire.NewMessage("urn:calc", "sum")
	arr := req.AddDoubleArray("values", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, float64(i)) // 0+1+…+9 = 45
	}
	ci, err := stub.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.FirstTime {
		t.Fatalf("first call: %v", ci.Match)
	}
	if svc.total() != 45 {
		t.Fatalf("total = %g", svc.total())
	}

	arr.Set(0, 100) // 145
	if ci, err = stub.Call(req); err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.StructuralMatch || ci.ValuesRewritten != 1 {
		t.Fatalf("second call: %+v", ci)
	}
	if svc.total() != 145 {
		t.Fatalf("total = %g", svc.total())
	}
}

func TestDiscoverAndDial(t *testing.T) {
	svc := startCalc(t)
	desc, err := wsdl.Fetch(svc.addr)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Name != "Calc" || len(desc.Operations) != 1 {
		t.Fatalf("discovered: %+v", desc)
	}

	// Build the request from the discovered schema alone.
	op := desc.Operations[0]
	req := wire.NewMessage(op.Namespace, op.Op)
	for _, p := range op.Params {
		if p.Type.Kind == wire.Array && p.Type.Elem == wire.TDouble {
			req.AddDoubleArray(p.Name, 3).Fill([]float64{1, 2, 3.5})
		}
	}
	if _, err := core.NewStub(core.Config{}, svc.dial(t)).Call(req); err != nil {
		t.Fatal(err)
	}
	if svc.total() != 6.5 {
		t.Fatalf("total = %g", svc.total())
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	svc := startCalc(t)
	stub := core.NewStub(core.Config{}, svc.dial(t))
	req := wire.NewMessage("urn:calc", "nosuchop")
	req.AddInt("x", 1)
	if _, err := stub.Call(req); err == nil {
		t.Fatal("unknown operation did not error")
	}
}

func TestStatsAccumulateAcrossCalls(t *testing.T) {
	svc := startCalc(t)
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, svc.dial(t))

	req := wire.NewMessage("urn:calc", "sum")
	arr := req.AddDoubleArray("values", 50)
	for i := 0; i < 50; i++ {
		arr.Set(i, 1)
	}
	for k := 0; k < 5; k++ {
		arr.Set(k, float64(k+2))
		if _, err := stub.Call(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := stub.Stats(); st.Calls != 5 || st.FirstTimeSends != 1 {
		t.Fatalf("client stats: %+v", st)
	}
	if ss := svc.rt.Stats(); ss.DiffDecodes != 4 {
		t.Fatalf("server stats: %+v", ss)
	}
}

func TestRawResponseAndDiscoverErrors(t *testing.T) {
	svc := startCalc(t)
	// A sender without ExpectResponse leaves the reply on the wire, where
	// the test reads the raw response itself.
	conn, err := net.Dial("tcp", svc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.NewMessage("urn:calc", "sum")
	req.AddDoubleArray("values", 2).Fill([]float64{1, 2.5})
	if _, err := core.NewStub(core.Config{}, transport.NewSender(conn, transport.SenderOptions{})).Call(req); err != nil {
		t.Fatal(err)
	}
	var resp transport.Response
	if err := transport.ReadResponseInto(bufio.NewReader(conn), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), ">3.5<") {
		t.Fatalf("raw response %d: %s", resp.Status, resp.Body)
	}
	// Discovery against a dead endpoint fails cleanly.
	if _, err := wsdl.Fetch("127.0.0.1:1"); err == nil {
		t.Fatal("discovery against closed port succeeded")
	}
}
