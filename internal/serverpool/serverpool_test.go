package serverpool

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/promtext"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

// sumSchema declares sum(values: double[]) -> sumResponse(total: double).
func sumSchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sum",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}
}

// sumFactory builds a per-replica handler that reuses one response
// message, the pattern that makes response-side differential matches.
func sumFactory() Handler {
	resp := wire.NewMessage("urn:calc", "sumResponse")
	total := resp.AddDouble("total", 0)
	return func(req *wire.Message) (*wire.Message, error) {
		var sum float64
		for i := 0; i < req.NumLeaves(); i++ {
			sum += req.LeafDouble(i)
		}
		total.Set(sum)
		return resp, nil
	}
}

func newSumRuntime(opts Options) *Runtime {
	rt := New(opts)
	rt.Register(sumSchema(), sumFactory)
	return rt
}

// client renders sum requests through its own bSOAP stub, like one
// remote caller with a keep-alive connection.
type client struct {
	msg  *wire.Message
	arr  wire.DoubleArrayRef
	sink *captureSink
	stub *core.Stub
}

func newClient(n int) *client { return newOpClient("sum", n) }

// newOpClient is newClient for an operation of the given name.
func newOpClient(op string, n int) *client {
	c := &client{sink: &captureSink{}}
	c.stub = core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, c.sink)
	c.msg = wire.NewMessage("urn:calc", op)
	c.arr = c.msg.AddDoubleArray("values", n)
	for i := 0; i < n; i++ {
		c.arr.Set(i, float64(i))
	}
	return c
}

func (c *client) body(t testing.TB) []byte {
	t.Helper()
	if _, err := c.stub.Call(c.msg); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), c.sink.data...)
}

func TestPerConnectionTemplateLocality(t *testing.T) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true, SelfCheck: true})
	// Two connections with different array shapes: on a shared decoder
	// they would compete for templates; per-connection replicas keep
	// both on the fast path after each one's first request.
	a, b := newClient(8), newClient(13)
	for round := 0; round < 3; round++ {
		a.arr.Set(0, float64(round))
		b.arr.Set(1, float64(round*7))
		ra, err := rt.Handle(1, "10.0.0.1:500", a.body(t))
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && !strings.Contains(string(ra), "sumResponse") {
			t.Fatalf("response: %s", ra)
		}
		if _, err := rt.Handle(2, "10.0.0.2:500", b.body(t)); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Requests != 6 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.FullParses != 2 || st.DiffDecodes != 4 {
		t.Fatalf("full=%d diff=%d, want 2/4", st.FullParses, st.DiffDecodes)
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d", st.SelfCheckFails)
	}
	if st.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", st.Replicas)
	}
}

func TestHandlerValuesDecodeCorrectly(t *testing.T) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true, SelfCheck: true})
	c := newClient(4)
	c.arr.Fill([]float64{1, 2, 3, 4.5})
	resp, err := rt.Handle(1, "", c.body(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), ">10.5<") {
		t.Fatalf("response: %s", resp)
	}
	// Change one value: the fast path must deliver the new sum.
	c.arr.Set(0, 100)
	resp, err = rt.Handle(1, "", c.body(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), ">109.5<") {
		t.Fatalf("fast-path response: %s", resp)
	}
	if st := rt.Stats(); st.DiffDecodes != 1 || st.SelfCheckFails != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReplicaLRUEviction(t *testing.T) {
	m := transport.NewServerMetrics()
	rt := newRuntime(Options{
		DifferentialDeserialization: true,
		MaxReplicas:                 2,
		Metrics:                     m,
	}, 1)
	rt.Register(sumSchema(), sumFactory)
	clients := []*client{newClient(4), newClient(5), newClient(6)}
	for i, c := range clients {
		if _, err := rt.Handle(uint64(i+1), "", c.body(t)); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", st.Replicas)
	}
	if st.ReplicaEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.ReplicaEvictions)
	}
	if n := m.Snapshot().ReplicaEvictions; n != 1 {
		t.Fatalf("metrics evictions = %d, want 1", n)
	}
	// Conn 1 was the LRU victim; coming back it full-parses again, while
	// conn 3 (resident) stays on the fast path.
	before := rt.Stats().FullParses
	if _, err := rt.Handle(3, "", clients[2].body(t)); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().FullParses != before {
		t.Fatal("resident replica lost its template")
	}
	if _, err := rt.Handle(1, "", clients[0].body(t)); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().FullParses != before+1 {
		t.Fatal("evicted replica should have full-parsed")
	}
}

func TestHTTPHandlerServesWSDLAndPosts(t *testing.T) {
	rt := newSumRuntime(Options{})
	h := rt.HTTPHandler()
	if _, err := h(&transport.Request{Method: "GET"}); err == nil {
		t.Fatal("GET without WSDL should error")
	}
	rt.SetWSDL([]byte("<definitions/>"))
	doc, err := h(&transport.Request{Method: "GET"})
	if err != nil || string(doc) != "<definitions/>" {
		t.Fatalf("GET: %q, %v", doc, err)
	}
	c := newClient(3)
	resp, err := h(&transport.Request{Method: "POST", ConnID: 7, Body: c.body(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "sumResponse") {
		t.Fatalf("POST response: %s", resp)
	}
}

// TestPeekedNamesKeepNoTemplates hides a fake operation name in a
// comment ahead of each envelope: the peek reads the fake name, and the
// full parse skips the comment and serves the registered operation. A
// name no operation is registered under keeps nothing, so a peer cannot
// make a replica hold templates under keys of its choosing.
func TestPeekedNamesKeepNoTemplates(t *testing.T) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true})
	c := newClient(16)
	for n := 0; n < 100; n++ {
		c.arr.Set(0, float64(n))
		body := append([]byte(fmt.Sprintf("<!-- :Body><fake%d> -->", n)), c.body(t)...)
		resp, err := rt.Handle(1, "", body)
		if err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		if !strings.Contains(string(resp), "sumResponse") {
			t.Fatalf("request %d: response %s", n, resp)
		}
	}
	if st := rt.Stats(); st.Requests != 100 || st.FullParses != 100 {
		t.Fatalf("requests %d, full parses %d, want 100 and 100", st.Requests, st.FullParses)
	}
	slot, r := rt.acquire(reg.Key{Conn: 1})
	held := r.differ.SizeBytes()
	rt.release(slot)
	if held != 0 {
		t.Fatalf("the deserializer holds %d B of templates under peeked names, want 0", held)
	}
}

func TestConcurrentClientsRace(t *testing.T) {
	m := transport.NewServerMetrics()
	rt := newSumRuntime(Options{DifferentialDeserialization: true, SelfCheck: true, Metrics: m})
	const clients = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 1; id <= clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each client alternates two shapes of its own: both fit the
			// replica's per-key template set, so after two full parses the
			// whole interleaving rides the fast path.
			shapes := [2]*client{newClient(4 + id), newClient(40 + id)}
			for r := 0; r < rounds; r++ {
				c := shapes[r%2]
				c.arr.Set(r%c.msg.NumLeaves(), float64(id*1000+r))
				resp, err := rt.Handle(uint64(id), fmt.Sprintf("10.0.0.%d:99", id), c.body(t))
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(string(resp), "sumResponse") {
					errs <- fmt.Errorf("client %d: bad response %q", id, resp)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d", st.SelfCheckFails)
	}
	// Each client full-parses once per shape, then rides the fast path.
	if st.FullParses != clients*2 {
		t.Fatalf("full parses = %d, want %d", st.FullParses, clients*2)
	}
	snap := m.Snapshot()
	if snap.DDSFastPath != int64(clients*(rounds-2)) {
		t.Fatalf("metrics fast path = %d, want %d", snap.DDSFastPath, clients*(rounds-2))
	}
	if rate := float64(st.DiffDecodes) / float64(st.Requests); rate < 0.9 {
		t.Fatalf("fast-path rate %.2f < 0.90", rate)
	}
}

func TestResponseStatsAggregate(t *testing.T) {
	rt := newSumRuntime(Options{})
	c := newClient(4)
	for i := 0; i < 3; i++ {
		if _, err := rt.Handle(1, "", c.body(t)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Handle(2, "", c.body(t)); err != nil {
		t.Fatal(err)
	}
	rs := rt.ResponseStats()
	if rs.Calls != 4 {
		t.Fatalf("response calls = %d", rs.Calls)
	}
	if rs.FirstTimeSends != 2 { // one per replica
		t.Fatalf("first-time sends = %d, want 2", rs.FirstTimeSends)
	}
	// Identical totals: repeats on conn 1's stub are content matches.
	if rs.ContentMatches != 2 {
		t.Fatalf("content matches = %d, want 2", rs.ContentMatches)
	}
}

// TestBudgetEvictionWithInFlightRequest is the server half of the
// eviction-under-budget-pressure contract: a replica condemned by the
// byte budget while its request is still decoding finishes on live
// arenas (under -tags membufpoison a use-after-release would corrupt
// the response), and its arenas are released only after that request's
// reference returns.
func TestBudgetEvictionWithInFlightRequest(t *testing.T) {
	m := transport.NewServerMetrics()
	// A 1-byte budget admits each replica only by self-exemption and
	// condemns everything else at every release.
	rt := newRuntime(Options{
		DifferentialDeserialization: true,
		SelfCheck:                   true,
		MaxTemplateBytes:            1,
		Metrics:                     m,
	}, 1)
	rt.Register(sumSchema(), sumFactory)
	a, b := newClient(6), newClient(7)

	// Warm conn 1, then take its replica as an in-flight request would.
	if _, err := rt.Handle(1, "", a.body(t)); err != nil {
		t.Fatal(err)
	}
	slot, r := rt.acquire(reg.Key{Conn: 1})

	// Conn 2's release must chase the budget; with conn 1 in flight only
	// the last-resort tier can pay, condemning its replica under us.
	if _, err := rt.Handle(2, "", b.body(t)); err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot().ReplicaBudgetEvictions; n == 0 {
		t.Fatal("expected a budget eviction while conn 1 was in flight")
	}
	if c := rt.reg.Counters(); c.Pending == 0 {
		t.Fatal("condemned in-flight replica should be pending arena release")
	}

	// The held replica still decodes differentially and serializes its
	// response on live arenas; SelfCheck re-verifies the decode.
	a.arr.Set(0, 1234.5)
	resp, err := rt.handle(r, &transport.Request{Body: a.body(t)})
	rt.release(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "sumResponse") {
		t.Fatalf("in-flight response: %s", resp)
	}
	for _, c := range resp {
		if c == 0xDB {
			t.Fatal("poison byte in response: replica arenas were released under an in-flight request")
		}
	}
	if st := rt.Stats(); st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d", st.SelfCheckFails)
	}
	if c := rt.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 after the in-flight request returned", c.Pending)
	}

	// Conn 1 returns on a fresh replica: a full parse, then correct sums.
	before := rt.Stats().FullParses
	if _, err := rt.Handle(1, "", a.body(t)); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().FullParses != before+1 {
		t.Fatal("fresh replica should have full-parsed")
	}
}

// TestTemplateBytesNeverExceedBudget hammers one runtime from several
// connections under a small budget and asserts the exported gauge never
// reads above it (the reservation-first admission contract).
func TestTemplateBytesNeverExceedBudget(t *testing.T) {
	m := transport.NewServerMetrics()
	// Each replica's footprint is 3.5–4.2 KB (decode state and a response
	// stub whose template is sized to its one-int body): the budget holds
	// about four of them but not the twelve-connection working set
	// (~45 KB), so eviction churns continuously while no single replica
	// triggers the oversized-entry exemption.
	const budget = 16 << 10
	rt := newRuntime(Options{
		DifferentialDeserialization: true,
		MaxTemplateBytes:            budget,
		Metrics:                     m,
	}, 2)
	rt.Register(sumSchema(), sumFactory)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := m.Snapshot().TemplateBytes; b > budget {
				t.Errorf("template bytes %d exceed budget %d", b, budget)
				return
			}
		}
	}()
	var cwg sync.WaitGroup
	for id := 1; id <= 12; id++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			c := newClient(32 + id)
			for r := 0; r < 60; r++ {
				c.arr.Set(r%c.msg.NumLeaves(), float64(id*100+r))
				if _, err := rt.Handle(uint64(id), "", c.body(t)); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	if hw := m.Snapshot().TemplateBytesHighWater; hw > budget {
		t.Fatalf("high water %d exceeds budget %d", hw, budget)
	}
	if m.Snapshot().ReplicaBudgetEvictions == 0 {
		t.Fatal("no budget eviction; the budget is too loose to prove anything")
	}
	if c := rt.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 after quiesce", c.Pending)
	}
}

// TestDebugTemplatesDump drives a couple of connections and asserts the
// uniform dump — directly and through the /debug/templates handler —
// carries the registry's accounting: affinity keys, per-entry bytes,
// in-flight counts, and the budget fields bsoap-inspect renders.
func TestDebugTemplatesDump(t *testing.T) {
	const budget = 1 << 20
	rt := newSumRuntime(Options{
		DifferentialDeserialization: true,
		MaxTemplateBytes:            budget,
	})
	a, b := newClient(8), newClient(12)
	for r := 0; r < 3; r++ {
		if _, err := rt.Handle(1, "", a.body(t)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Handle(2, "", b.body(t)); err != nil {
		t.Fatal(err)
	}

	check := func(d reg.Dump) {
		t.Helper()
		if d.Side != "server" {
			t.Fatalf("side = %q, want server", d.Side)
		}
		if d.Entries != 2 || len(d.Templates) != 2 {
			t.Fatalf("entries = %d (%d rows), want 2", d.Entries, len(d.Templates))
		}
		if d.BudgetBytes != budget {
			t.Fatalf("budget = %d, want %d", d.BudgetBytes, budget)
		}
		if d.Bytes <= 0 || d.HighWaterBytes < d.Bytes {
			t.Fatalf("bytes = %d, high water = %d", d.Bytes, d.HighWaterBytes)
		}
		seen := map[string]bool{}
		var sum int64
		for _, e := range d.Templates {
			seen[e.Affinity] = true
			if e.Bytes <= 0 || e.Replicas != 1 || e.InFlight != 0 {
				t.Fatalf("row %+v: want positive bytes, 1 replica, 0 in flight", e)
			}
			if e.LastUseNS == 0 {
				t.Fatalf("row %s: zero last-use", e.Affinity)
			}
			sum += e.Bytes
		}
		if !seen["conn:1"] || !seen["conn:2"] {
			t.Fatalf("affinity keys = %v, want conn:1 and conn:2", seen)
		}
		if sum != d.Bytes {
			t.Fatalf("row bytes sum %d != dump bytes %d", sum, d.Bytes)
		}
	}
	check(rt.DebugTemplates())

	rec := httptest.NewRecorder()
	reg.DumpHandler(rt.DebugTemplates).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/templates", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status %d", rec.Code)
	}
	var d reg.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	check(d)
}

// TestRegisterShared routes every replica through one shared handler
// instance.
func TestRegisterShared(t *testing.T) {
	rt := New(Options{DifferentialDeserialization: true})
	calls := 0
	resp := wire.NewMessage("urn:calc", "sumResponse")
	resp.AddDouble("total", 0)
	rt.RegisterShared(sumSchema(), func(req *wire.Message) (*wire.Message, error) {
		calls++
		return resp, nil
	})
	a := newClient(4)
	for conn := uint64(1); conn <= 2; conn++ {
		if _, err := rt.Handle(conn, "", a.body(t)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("shared handler ran %d times, want 2", calls)
	}
}

// TestSpanAdoptionRecordsServerEvents drives the HTTP handler with a
// propagated client span: the runtime must adopt it — recording a
// server-span anchor carrying a server-local sub-span and the
// connection id — and attribute decode/handler/respond stage events
// under the client's id. A request without a span must record no
// anchor (locally numbered spans of untraced clients would otherwise
// correlate by coincidence).
func TestSpanAdoptionRecordsServerEvents(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.Default.Clear()

	rt := newSumRuntime(Options{DifferentialDeserialization: true})
	h := rt.HTTPHandler()
	c := newClient(4)

	const clientSpan = 0xbeef
	if _, err := h(&transport.Request{Method: "POST", Body: c.body(t), TraceSpan: clientSpan, ConnID: 7}); err != nil {
		t.Fatal(err)
	}

	var anchor *trace.EventJSON
	stages := map[trace.Stage]bool{}
	for _, ev := range trace.Default.Snapshot().Events {
		if ev.Span != clientSpan {
			continue
		}
		switch ev.Kind {
		case "server-span":
			e := ev
			anchor = &e
		case "stage":
			stages[trace.Stage(ev.A)] = true
		}
	}
	if anchor == nil {
		t.Fatal("no server-span anchor recorded for the propagated span")
	}
	if anchor.A == 0 || anchor.B != 7 {
		t.Fatalf("anchor sub-span %d, conn %d; want nonzero sub-span, conn 7", anchor.A, anchor.B)
	}
	for _, st := range []trace.Stage{trace.StageDecode, trace.StageHandler, trace.StageRespond} {
		if !stages[st] {
			t.Errorf("stage %v not attributed to the client span (got %v)", st, stages)
		}
	}

	// No propagated span: the server numbers its own span, no anchor.
	trace.Default.Clear()
	c.arr.Set(0, 9)
	if _, err := h(&transport.Request{Method: "POST", Body: c.body(t), ConnID: 7}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.Default.Snapshot().Events {
		if ev.Kind == "server-span" {
			t.Fatalf("anchor recorded without a propagated span: %+v", ev)
		}
	}
}

// TestFullParseReasonsOfALengthRotation is the benchmark's reshape_cold
// read off the server's own metrics: one connection sending the same
// operation at sixteen array lengths in rotation. The first four lengths
// take the four templates a key keeps and hold them: from the second
// round on they decode on the fast path. The other twelve are refused a
// template on every call — the doorkeeper remembers only the last four
// refused lengths, and twelve come between a length's turns — so they
// are full parses that keep nothing and evict nothing. After the first
// call, which found nothing retained, every full parse says why:
// "length". The labelled family sums to the unlabelled total and the
// page stays valid.
func TestFullParseReasonsOfALengthRotation(t *testing.T) {
	m := transport.NewServerMetrics()
	rt := newSumRuntime(Options{DifferentialDeserialization: true, Metrics: m})
	clients := make([]*client, 16)
	for i := range clients {
		clients[i] = newClient(20 + 2*i)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, c := range clients {
			c.arr.Set(0, float64(r))
			if _, err := rt.Handle(1, "10.0.0.1:99", c.body(t)); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := m.Snapshot()
	total := int64(rounds * len(clients))
	const fast, refused = (rounds - 1) * 4, rounds * 12
	if snap.DDSFastPath != fast || snap.DDSFullParses != total-fast || snap.DDSRefused != refused {
		t.Fatalf("fast %d full %d refused %d, want %d, %d and %d of %d calls",
			snap.DDSFastPath, snap.DDSFullParses, snap.DDSRefused, fast, total-fast, refused, total)
	}
	if d := rt.DebugTemplates(); d.Refused != refused {
		t.Fatalf("/debug/templates reads %d refused, want %d", d.Refused, refused)
	}
	why := snap.DDSFullParseReasons
	if why["no_template"] != 1 || why["length"] != total-fast-1 || len(why) != 5 {
		t.Fatalf("reasons %v, want 1 no_template and %d length of 5 classes", why, total-fast-1)
	}

	var page strings.Builder
	if err := m.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.Validate(strings.NewReader(page.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	vals, err := promtext.ReadValues(strings.NewReader(page.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, reason := range []string{"no_template", "length", "markup", "value", "dropped"} {
		v, ok := vals[`bsoap_server_dds_full_parse_reason_total{reason="`+reason+`"}`]
		if !ok {
			t.Errorf("no %q sample on the page", reason)
		}
		sum += v
	}
	if unlabelled := vals["bsoap_server_dds_full_parse_total"]; sum != unlabelled || unlabelled != float64(total-fast) {
		t.Fatalf("labelled samples sum to %v, unlabelled total %v, want %d", sum, unlabelled, total-fast)
	}
	if v := vals["bsoap_server_dds_refused_total"]; v != refused {
		t.Fatalf("bsoap_server_dds_refused_total = %v, want %d", v, refused)
	}
}
