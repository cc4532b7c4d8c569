// Condor flocking example (paper §3.4): pools periodically exchange
// ClassAd descriptions of their machines. Between exchanges most
// resource attributes are unchanged, so bSOAP automatically
// re-serializes only the differences — quiet periods are pure message
// content matches, busy periods sparse structural matches — without any
// change to the resource manager itself.
//
//	go run ./examples/condor [-machines 500] [-rounds 20] [-churn 0.05]
package main

import (
	"flag"
	"fmt"
	"log"

	"bsoap"
	"bsoap/internal/classad"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

func main() {
	var (
		machines = flag.Int("machines", 500, "machines per pool")
		rounds   = flag.Int("rounds", 20, "exchange rounds")
		churn    = flag.Float64("churn", 0.05, "fraction of machines changing per busy round")
	)
	flag.Parse()

	// The flock collector: receives updates, acks with the ad count.
	endpoint := serverpool.New(serverpool.Options{DifferentialDeserialization: true})
	endpoint.Register(&soapdec.Schema{
		Namespace: classad.Namespace,
		Op:        "flockUpdate",
		Params: []soapdec.ParamSpec{
			{Name: "pool", Type: wire.TString},
			{Name: "ads", Type: wire.ArrayOf(classad.AdType())},
		},
	}, func() serverpool.Handler {
		// One reused response message per connection's replica.
		resp := wire.NewMessage(classad.Namespace, "flockUpdateResponse")
		accepted := resp.AddInt("accepted", 0)
		return func(req *wire.Message) (*wire.Message, error) {
			_, ads, err := classad.DecodeAds(req)
			if err != nil {
				return nil, err
			}
			accepted.Set(int32(len(ads)))
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

	sender, err := bsoap.Dial(srv.Addr(), bsoap.SenderOptions{ExpectResponse: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()

	pool := classad.NewPool("pool-binghamton", *machines, 1)
	exchange := classad.NewExchange(pool)

	// Stuff numeric fields so load changes never shift the template.
	stub := bsoap.NewStub(bsoap.Config{
		Width: bsoap.WidthPolicy{Int: bsoap.MaxWidth, Double: bsoap.MaxWidth},
	}, sender)

	fmt.Printf("flocking %d machines to %s for %d rounds\n\n", *machines, srv.Addr(), *rounds)
	for round := 1; round <= *rounds; round++ {
		// Alternate quiet and busy periods.
		busy := round%3 == 0
		changed := 0
		if busy {
			changed = pool.Tick(*churn)
		}
		exchange.Sync()
		ci, err := stub.Call(exchange.Msg)
		if err != nil {
			log.Fatalf("round %d: %v", round, err)
		}
		fmt.Printf("round %2d: %2d machines changed → %-26s %5d values re-serialized\n",
			round, changed, ci.Match, ci.ValuesRewritten)
	}

	st := stub.Stats()
	total := st.Calls * int64(exchange.Msg.NumLeaves())
	fmt.Printf("\nclient: %d exchanges — %d content matches, %d structural; "+
		"%d of %d values re-serialized (%.2f%%)\n",
		st.Calls, st.ContentMatches, st.StructuralMatches+st.PartialMatches,
		st.ValuesRewritten, total, 100*float64(st.ValuesRewritten)/float64(total))
	ss := endpoint.Stats()
	fmt.Printf("server: %d full parses, %d differential decodes (%d values reparsed)\n",
		ss.FullParses, ss.DiffDecodes, ss.ValuesReparsed)
}
