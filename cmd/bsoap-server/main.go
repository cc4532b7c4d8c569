// Command bsoap-server runs the receiving side of the experiments and
// examples.
//
// Modes:
//
//	-mode discard   read and drop requests without parsing (the paper's
//	                dummy server; pair with bsoap-bench -tcp)
//	-mode sum       SOAP service summing a double array
//	-mode mcs       Metadata Catalog Service over an in-memory catalog
//	-mode flock     Condor flock collector printing received ClassAd stats
//	-mode bench     acknowledge the loadgen workload operations
//	                (sendDoubles/sendInts/sendMIOs)
//	-mode record    keep every accepted request body in memory and
//	                answer 200 (conformance/chaos runs; bound retention
//	                with -record-limit)
//
// SOAP modes run on the concurrent serverpool runtime: each connection
// gets its own differential-deserializer replica and response stub, so
// concurrent clients decode in parallel without thrashing shared
// templates, and a client that reconnects starts cold (-max-replicas
// bounds the replicas kept). Requests decode through differential
// deserialization; decode statistics are reported on shutdown.
//
// Admission control: -max-conns and -max-inflight reject excess load
// with fast 503s, -request-timeout bounds each request read.
// -read-ahead N overlaps parsing with handling for pipelined clients:
// up to N requests are read ahead per connection while the handler
// runs, with responses still written strictly in request order.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, then the
// process reports "drain complete" and exits 0. -drain-timeout bounds
// the wait; a second signal hard-stops immediately.
//
// -metrics :8124 exposes the server's registry while it runs: JSON at
// http://localhost:8124/, Prometheus text exposition at /metrics, and
// the flight-recorder ring at /debug/trace (enable it with -trace to
// record decode and response-path template decisions).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof flag: live heap/alloc profiles
	"os"
	"os/signal"
	"syscall"
	"time"

	"bsoap/internal/classad"
	"bsoap/internal/health"
	"bsoap/internal/mcs"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
	"bsoap/internal/wsdl"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9999", "listen address")
		mode     = flag.String("mode", "discard", "discard | sum | mcs | flock | bench | record")
		respond  = flag.Bool("respond", true, "answer every request (discard mode defaults to silent)")
		delta    = flag.Bool("delta", true, "accept differential transmission (serverpool runtime: hold each client template's last body, apply patch frames against it)")
		selfchk  = flag.Bool("selfcheck", false, "re-verify every differential fast-path decode against a full parse")
		quiet    = flag.Bool("quiet", false, "suppress per-connection error logging")
		recCap   = flag.Int("record-limit", 10000, "record mode: max bodies kept in memory (0 = unbounded)")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) — verify the receive path's allocation profile under load")
		metrics  = flag.String("metrics", "", "serve server metrics on this address (e.g. :8124): JSON at /, Prometheus at /metrics, /debug/trace, /debug/trace/slow, /debug/health")
		traceOn  = flag.Bool("trace", false, "enable the flight recorder (records decode and response-path template decisions)")

		slowThresh = flag.Duration("slow-threshold", 0, "capture full event sets of requests slower than this server-side (0 = off)")
		slowQuant  = flag.Float64("slow-quantile", 0, "capture requests slower than this rolling latency quantile, e.g. 0.99 (0 = off; overrides -slow-threshold)")

		maxConns     = flag.Int("max-conns", 0, "admission: max open connections, excess rejected 503 (0 = unlimited)")
		maxInflight  = flag.Int("max-inflight", 0, "admission: max requests handled at once, excess shed 503 (0 = unlimited)")
		readAhead    = flag.Int("read-ahead", 0, "parse up to N pipelined requests ahead per connection while the handler runs (responses stay in order; 0 = read one at a time)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request read deadline once its first byte arrives (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM before force-closing")
		maxReplicas  = flag.Int("max-replicas", 256, "serverpool: max resident per-connection replicas (LRU beyond)")
		maxTmplB     = flag.Int64("max-template-bytes", 0, "serverpool: replica template memory budget in bytes (0 = unbudgeted); LRU replicas are evicted to stay under it")
	)
	flag.Parse()

	if *pprofSrv != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bsoap-server: pprof endpoint:", err)
			}
		}()
		fmt.Printf("bsoap-server: pprof on http://%s/debug/pprof/\n", *pprofSrv)
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "bsoap-server: ", log.LstdFlags)
	}

	if *traceOn {
		trace.Enable()
	}
	if *slowThresh > 0 {
		trace.SetSlowThreshold(*slowThresh)
	}
	if *slowQuant > 0 {
		trace.SetSlowQuantile(*slowQuant)
	}
	sm := transport.NewServerMetrics()

	var (
		rt  *serverpool.Runtime
		rec *serverpool.Recorder
	)
	opts := transport.ServerOptions{
		Logger: logger, Metrics: sm,
		MaxConns: *maxConns, MaxInFlight: *maxInflight, RequestTimeout: *reqTimeout,
		ReadAhead: *readAhead,
	}

	var svcName, svcNS string
	var ops []opSpec
	switch *mode {
	case "discard":
		opts.Respond = false // Send Time measurements never wait
	case "record":
		rec = serverpool.NewRecorder(*recCap, sm)
		opts.Handler = rec.HTTPHandler()
		opts.Respond = true
	case "sum":
		svcName, svcNS, ops = "Calc", "urn:calc", sumOps()
	case "mcs":
		svcName, svcNS = "MetadataCatalog", mcs.Namespace
	case "flock":
		svcName, svcNS, ops = "FlockCollector", classad.Namespace, flockOps(logger)
	case "bench":
		svcName, svcNS, ops = "Bench", workload.Namespace, benchOps()
	default:
		fmt.Fprintf(os.Stderr, "bsoap-server: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	soapMode := svcName != ""
	if soapMode {
		catalog := mcs.NewCatalog([]string{"owner", "experiment", "format", "site"})
		rt = serverpool.New(serverpool.Options{
			Delta:            *delta,
			MaxReplicas:      *maxReplicas,
			MaxTemplateBytes: *maxTmplB,
			SelfCheck:        *selfchk,
			Metrics:          sm,
		})
		if *mode == "mcs" {
			mcs.BindRuntime(rt, catalog)
		}
		for _, o := range ops {
			rt.Register(o.schema, o.factory)
		}
		opts.Handler = rt.HTTPHandler()
		opts.Respond = *respond
	}

	srv, err := transport.Listen(*addr, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsoap-server:", err)
		os.Exit(1)
	}
	if soapMode {
		schemas := make([]*soapdec.Schema, 0, len(ops))
		for _, o := range ops {
			schemas = append(schemas, o.schema)
		}
		if *mode == "mcs" {
			schemas = []*soapdec.Schema{mcs.AddSchema(), mcs.QuerySchema(), mcs.DeleteSchema()}
		}
		doc, werr := wsdl.Generate(&wsdl.Service{
			Name: svcName, Namespace: svcNS, Endpoint: "http://" + srv.Addr() + "/", Operations: schemas,
		})
		if werr != nil {
			log.Printf("bsoap-server: wsdl generation failed: %v", werr)
		} else {
			rt.SetWSDL(doc)
		}
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/", sm.StatsHandler())
		mux.Handle("/metrics", promtext.Handler(sm.WritePrometheus))
		mux.Handle("/debug/trace", trace.Handler())
		mux.Handle("/debug/trace/slow", trace.SlowHandler())
		mux.Handle("/debug/health", health.NewProbe("bsoap-server").Handler())
		if rt != nil {
			mux.Handle("/debug/templates", replica.DumpHandler(rt.DebugTemplates))
		}
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bsoap-server: metrics endpoint:", err)
			}
		}()
		fmt.Printf("bsoap-server: metrics on http://%s/ (JSON), /metrics (Prometheus), /debug/trace, /debug/trace/slow, /debug/health, /debug/templates\n", *metrics)
	}
	runtimeName := "serverpool"
	if !soapMode {
		runtimeName = *mode
	}
	fmt.Printf("bsoap-server: mode=%s runtime=%s listening on %s\n", *mode, runtimeName, srv.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful drain: stop accepting, let in-flight requests finish. A
	// second signal (or the drain deadline) hard-stops.
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bsoap-server: second signal, hard stop")
		srv.Close()
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Shutdown(ctx)
	cancel()
	aborted := sm.Snapshot().DrainAborted
	if drainErr != nil {
		fmt.Printf("bsoap-server: drain timed out after %s (%d in-flight requests aborted)\n", *drainTimeout, aborted)
	} else {
		fmt.Printf("bsoap-server: drain complete (%d in-flight requests aborted)\n", aborted)
	}

	fmt.Printf("bsoap-server: served %d requests, %d body bytes\n", srv.Requests(), srv.Bytes())
	if rec != nil {
		fmt.Printf("bsoap-server: recorded %d bodies (%d dropped by -record-limit)\n", rec.Count(), rec.Dropped())
	}
	if rt != nil {
		st := rt.Stats()
		fmt.Printf("bsoap-server: decodes: %d full parses, %d differential (%d values reparsed), %d self-check fails\n",
			st.FullParses, st.DiffDecodes, st.ValuesReparsed, st.SelfCheckFails)
		if st.DeltaApplied > 0 || st.DeltaSyncs > 0 || st.DeltaResyncs > 0 {
			fmt.Printf("bsoap-server: delta: %d patches applied, %d base syncs, %d resyncs\n",
				st.DeltaApplied, st.DeltaSyncs, st.DeltaResyncs)
		}
		ss := sm.Snapshot()
		fmt.Printf("bsoap-server: replicas: %d resident, %d evicted, %d templates refused\n",
			st.Replicas, st.ReplicaEvictions, ss.DDSRefused)
		if ss.ReplicaBudgetEvictions > 0 || ss.TemplateBytesHighWater > 0 {
			fmt.Printf("bsoap-server: template memory: %.1f KB resident (high water %.1f KB), %d budget evictions\n",
				float64(ss.TemplateBytes)/1e3, float64(ss.TemplateBytesHighWater)/1e3, ss.ReplicaBudgetEvictions)
		}
		rs := rt.ResponseStats()
		fmt.Printf("bsoap-server: responses: %d first-time, %d content matches, %d structural\n",
			rs.FirstTimeSends, rs.ContentMatches, rs.StructuralMatches)
	}
	if drainErr != nil {
		os.Exit(1)
	}
}

// opSpec couples an operation schema with a per-replica handler factory
// (the serverpool runtime instantiates one handler per replica).
type opSpec struct {
	schema  *soapdec.Schema
	factory serverpool.HandlerFactory
}

// sumOps declares sum(values: double[]) → sumResponse(total).
func sumOps() []opSpec {
	schema := &soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sum",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}
	return []opSpec{{schema: schema, factory: func() serverpool.Handler {
		resp := wire.NewMessage("urn:calc", "sumResponse")
		total := resp.AddDouble("total", 0)
		return func(req *wire.Message) (*wire.Message, error) {
			var s float64
			for i := 0; i < req.NumLeaves(); i++ {
				s += req.LeafDouble(i)
			}
			total.Set(s)
			return resp, nil
		}
	}}}
}

// flockOps accepts Condor flock updates and tracks pool load.
func flockOps(logger *log.Logger) []opSpec {
	schema := &soapdec.Schema{
		Namespace: classad.Namespace,
		Op:        "flockUpdate",
		Params: []soapdec.ParamSpec{
			{Name: "pool", Type: wire.TString},
			{Name: "ads", Type: wire.ArrayOf(classad.AdType())},
		},
	}
	return []opSpec{{schema: schema, factory: func() serverpool.Handler {
		resp := wire.NewMessage(classad.Namespace, "flockUpdateResponse")
		accepted := resp.AddInt("accepted", 0)
		return func(req *wire.Message) (*wire.Message, error) {
			pool, ads, err := classad.DecodeAds(req)
			if err != nil {
				return nil, err
			}
			busy := 0
			var load float64
			for _, ad := range ads {
				if ad.State == 1 {
					busy++
				}
				load += ad.LoadAvg
			}
			if logger != nil {
				logger.Printf("flock: pool %q: %d ads, %d busy, avg load %.2f",
					pool, len(ads), busy, load/float64(max(1, len(ads))))
			}
			accepted.Set(int32(len(ads)))
			return resp, nil
		}
	}}}
}

// benchOps acknowledges the loadgen workload operations: each response
// reports the element count received, through a fixed-shape message
// that gives the response stub content/structural matches.
func benchOps() []opSpec {
	ack := func(respOp string) serverpool.HandlerFactory {
		return func() serverpool.Handler {
			resp := wire.NewMessage(workload.Namespace, respOp)
			n := resp.AddInt("n", 0)
			return func(req *wire.Message) (*wire.Message, error) {
				n.Set(int32(req.NumLeaves()))
				return resp, nil
			}
		}
	}
	return []opSpec{
		{schema: &soapdec.Schema{
			Namespace: workload.Namespace, Op: "sendDoubles",
			Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
		}, factory: ack("sendDoublesResponse")},
		{schema: &soapdec.Schema{
			Namespace: workload.Namespace, Op: "sendInts",
			Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TInt)}},
		}, factory: ack("sendIntsResponse")},
		{schema: &soapdec.Schema{
			Namespace: workload.Namespace, Op: "sendMIOs",
			Params: []soapdec.ParamSpec{{Name: "mios", Type: wire.ArrayOf(workload.MIOType())}},
		}, factory: ack("sendMIOsResponse")},
	}
}
