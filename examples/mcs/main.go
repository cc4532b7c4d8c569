// Metadata Catalog Service example (paper §3.4): every request to the
// MCS conforms to a fixed metadata schema, so the SOAP payload shape is
// identical call after call. The client's add/query messages become
// structural matches, and the server — running with differential
// deserialization — stops fully parsing the repeats.
//
//	go run ./examples/mcs [-files 200]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"bsoap"
	"bsoap/internal/mcs"
	"bsoap/internal/serverpool"
	"bsoap/internal/transport"
)

// rpcSink adapts a Sender's round-trip path so stub.Call both sends the
// request and collects the response body.
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
	files := flag.Int("files", 200, "files to register")
	flag.Parse()

	// Server: in-memory catalog behind a SOAP endpoint with
	// differential deserialization.
	schema := []string{"owner", "experiment", "format", "site"}
	catalog := mcs.NewCatalog(schema)
	endpoint := serverpool.New(serverpool.Options{DifferentialDeserialization: true})
	mcs.BindRuntime(endpoint, catalog)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: endpoint.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("MCS serving on %s (schema: %v)\n\n", srv.Addr(), schema)

	sender, err := bsoap.Dial(srv.Addr(), bsoap.SenderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	sink := &rpcSink{sender: sender}

	// The client reuses ONE add message for every registration; since
	// values are padded to stable shapes by the schema, each request is
	// a structural match after the first.
	owners := []string{"alice", "bob00", "carol", "dave0"}
	exps := []string{"climate-2026", "fusion-burst", "genome-assembly"}
	formats := []string{"hdf50", "ncdf4", "fits0"}

	addMsg := bsoap.NewMessage(mcs.Namespace, "mcsAdd")
	name := addMsg.AddString("logicalName", "")
	vals := addMsg.AddStringArray("values", len(schema))
	stub := bsoap.NewStub(bsoap.Config{}, sink)

	for i := 0; i < *files; i++ {
		name.Set(fmt.Sprintf("run-%06d.dat", i))
		vals.Set(0, owners[i%len(owners)])
		vals.Set(1, exps[i%len(exps)])
		vals.Set(2, formats[i%len(formats)])
		vals.Set(3, fmt.Sprintf("site-%02d", i%8))
		if _, err := stub.Call(addMsg); err != nil {
			log.Fatalf("add %d: %v", i, err)
		}
	}
	fmt.Printf("registered %d files; catalog holds %d entries\n", *files, catalog.Len())

	// Queries: same fixed shape, only the predicate values change.
	qMsg := bsoap.NewMessage(mcs.Namespace, "mcsQuery")
	attr := qMsg.AddString("attribute", "")
	value := qMsg.AddString("value", "")
	for _, q := range []struct{ a, v string }{
		{"owner", "alice"},
		{"experiment", "fusion-burst"},
		{"format", "hdf50"},
		{"owner", "nosuchuser"},
	} {
		attr.Set(q.a)
		value.Set(q.v)
		if _, err := stub.Call(qMsg); err != nil {
			log.Fatalf("query: %v", err)
		}
		names, err := catalog.Query(q.a, q.v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %s=%s → %d files (first page returned over SOAP)\n",
			q.a, q.v, len(names))
	}

	cs := stub.Stats()
	fmt.Printf("\nclient sends: %d — %d first-time, %d structural, %d partial, %d content matches\n",
		cs.Calls, cs.FirstTimeSends, cs.StructuralMatches, cs.PartialMatches, cs.ContentMatches)
	ss := endpoint.Stats()
	fmt.Printf("server decodes: %d full parses, %d differential (%d values reparsed)\n",
		ss.FullParses, ss.DiffDecodes, ss.ValuesReparsed)
	rs := endpoint.ResponseStats()
	fmt.Printf("server responses: %d first-time, %d structural, %d content matches\n",
		rs.FirstTimeSends, rs.StructuralMatches+rs.PartialMatches, rs.ContentMatches)
}
