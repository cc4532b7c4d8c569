// Web-service example (paper §3.4): "Google and Amazon.com provide a
// Web services interface. The XML Schema used for the responses to user
// requests is always the same; only the values change." A search
// service answers every query with a fixed-shape result page, so its
// response stub serializes only the values that differ from the
// previous response — the perfect-structural-match win the paper
// predicts for heavily used servers.
//
// The client first fetches the service's WSDL over GET and builds its
// request message from the parsed description.
//
//	go run ./examples/webindex [-queries 30]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"

	"bsoap"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/wsdl"
)

// pageSize fixes the response shape: every response carries exactly
// this many result slots.
const pageSize = 8

// corpus is the searchable "product index".
var corpus = []string{
	"mesh interface toolkit", "linear system analyzer", "metadata catalog",
	"condor flock manager", "grid service container", "soap message router",
	"xml schema validator", "differential serializer", "chunked buffer arena",
	"floating point encoder", "scatter gather sender", "template store cache",
	"dirty bit tracker", "structural match engine", "whitespace stuffer",
	"closing tag shifter", "field width stealer", "chunk overlay streamer",
}

// search scores corpus entries against a query (shared terms, then
// name order for determinism).
func search(query string) (titles []string, scores []float64) {
	terms := strings.Fields(strings.ToLower(query))
	type hit struct {
		title string
		score float64
	}
	var hits []hit
	for _, doc := range corpus {
		s := 0.0
		for _, t := range terms {
			if strings.Contains(doc, t) {
				s += 1.0 / float64(len(terms))
			}
		}
		if s > 0 {
			hits = append(hits, hit{doc, s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].title < hits[j].title
	})
	for _, h := range hits {
		titles = append(titles, h.title)
		scores = append(scores, h.score)
	}
	return titles, scores
}

// rpcSink performs request/response round trips through the stub.
type rpcSink struct {
	sender *transport.Sender
	last   []byte
}

func (r *rpcSink) Send(bufs net.Buffers) error {
	resp, err := r.sender.Roundtrip(bufs)
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("server returned %d: %s", resp.Status, resp.Body)
	}
	r.last = resp.Body
	return nil
}

func main() {
	queries := flag.Int("queries", 30, "number of search queries to issue")
	flag.Parse()

	// --- Service side -------------------------------------------------
	searchSchema := &soapdec.Schema{
		Namespace: "urn:webindex",
		Op:        "search",
		Params: []soapdec.ParamSpec{
			{Name: "query", Type: wire.TString},
			{Name: "maxResults", Type: wire.TInt},
		},
	}
	endpoint := serverpool.New(serverpool.Options{DifferentialDeserialization: true})

	// One response message per connection's replica, reused for every
	// query: fixed page shape.
	endpoint.Register(searchSchema, func() serverpool.Handler {
		resp := wire.NewMessage("urn:webindex", "searchResponse")
		total := resp.AddInt("total", 0)
		titles := resp.AddStringArray("titles", pageSize)
		scores := resp.AddDoubleArray("scores", pageSize)
		return func(req *wire.Message) (*wire.Message, error) {
			q := req.LeafString(0)
			ts, ss := search(q)
			total.Set(int32(len(ts)))
			for i := 0; i < pageSize; i++ {
				if i < len(ts) {
					titles.Set(i, ts[i])
					scores.Set(i, ss[i])
				} else {
					titles.Set(i, "")
					scores.Set(i, 0)
				}
			}
			return resp, nil
		}
	})

	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: endpoint.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	doc, err := wsdl.Generate(&wsdl.Service{
		Name:       "WebIndex",
		Namespace:  "urn:webindex",
		Endpoint:   "http://" + srv.Addr() + "/",
		Operations: []*soapdec.Schema{searchSchema},
	})
	if err != nil {
		log.Fatal(err)
	}
	endpoint.SetWSDL(doc)

	// --- Client side ----------------------------------------------------
	// Discover the service: fetch and parse its WSDL, then build the
	// request message from the recovered schema.
	wsdlResp, err := transport.Fetch(srv.Addr(), "/?wsdl")
	if err != nil {
		log.Fatal(err)
	}
	svc, err := wsdl.Parse(wsdlResp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered service %q at %s with %d operation(s)\n",
		svc.Name, svc.Endpoint, len(svc.Operations))

	op := svc.Operations[0]
	req := bsoap.NewMessage(op.Namespace, op.Op)
	var queryRef bsoap.StringRef
	for _, p := range op.Params {
		switch p.Type.Kind {
		case wire.String:
			queryRef = req.AddString(p.Name, "")
		case wire.Int:
			req.AddInt(p.Name, pageSize)
		}
	}

	sender, err := bsoap.Dial(srv.Addr(), bsoap.SenderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	sink := &rpcSink{sender: sender}
	stub := bsoap.NewStub(bsoap.Config{}, sink)

	words := []string{"mesh", "grid", "soap", "xml", "chunk", "field", "match", "tag"}
	for i := 0; i < *queries; i++ {
		q := words[i%len(words)] + " " + words[(i/2+3)%len(words)]
		queryRef.Set(q)
		if _, err := stub.Call(req); err != nil {
			log.Fatalf("query %d: %v", i, err)
		}
		if i < 4 {
			ts, _ := search(q)
			fmt.Printf("query %-14q → %d hits\n", q, len(ts))
		}
	}

	cs := stub.Stats()
	fmt.Printf("\nclient requests: %d — %d first-time, %d structural, %d partial, %d content matches\n",
		cs.Calls, cs.FirstTimeSends, cs.StructuralMatches, cs.PartialMatches, cs.ContentMatches)
	rs := endpoint.ResponseStats()
	fmt.Printf("server responses: %d first-time, %d structural, %d partial, %d content matches\n",
		rs.FirstTimeSends, rs.StructuralMatches, rs.PartialMatches, rs.ContentMatches)
	fmt.Printf("server response values re-serialized: %d (vs %d if fully serialized each time)\n",
		rs.ValuesRewritten, rs.Calls*int64(1+2*pageSize))
	ss := endpoint.Stats()
	fmt.Printf("server request decodes: %d full, %d differential\n", ss.FullParses, ss.DiffDecodes)
}
