// Package harness is the shared scaffolding of the integration suites:
// the recording conformance server, the serverpool "bench" runtime that
// acknowledges every workload operation, and pooled clients with socket
// timeouts — previously duplicated across the root-level conformance,
// serverpool and steady-state tests.
//
// (The natural name for this package is taken: internal/dut is the
// paper's Data Update Tracking table, so the test scaffolding lives
// under harness instead.)
//
// Constructors take a testing.TB and register their teardown with
// Cleanup, so suites compose pieces without managing lifetimes. The
// returned types are the real runtime types (pool.Pool, transport
// .Server) — bsoap's public aliases point at the same types, so
// root-level tests hand bsoap.PoolOptions straight in.
package harness

import (
	"testing"
	"time"

	"bsoap/internal/faultwire"
	"bsoap/internal/pool"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// Recorder builds a recording server (every accepted body retained for
// byte-conformance checks) and a pooled client dialed at it. When inj is
// non-nil, every client connection runs through the fault injector and
// the pool's metrics report its fault count. sm, when non-nil, is the
// server's registry: the transport and the recorder both count into it.
func Recorder(tb testing.TB, inj *faultwire.Injector, sm *transport.ServerMetrics, opts pool.Options) (*serverpool.Recorder, *pool.Pool) {
	tb.Helper()
	rec := serverpool.NewRecorder(0, sm)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Metrics:   sm,
		Handler:   rec.HTTPHandler(),
		Respond:   true,
		ReadAhead: readAheadFor(opts),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })

	opts.Addr = srv.Addr()
	if inj != nil {
		opts.Sender.Dialer = inj.Dial(opts.Sender.Dialer)
	}
	p := Pool(tb, opts)
	if inj != nil {
		p.Metrics().SetFaultSource(inj.Faults)
	}
	return rec, p
}

// readAheadFor matches the server's read-ahead window to the client's
// pipeline depth, so pipelined suites exercise server-side read-ahead
// too (a depth-1 client leaves it zero: same wire behaviour either way).
func readAheadFor(opts pool.Options) int {
	if opts.PipelineDepth > 0 {
		return opts.PipelineDepth
	}
	return 0
}

// BenchRuntime builds a serverpool runtime acknowledging all three
// workload operations (sendDoubles, sendInts, sendMIOs — the same
// registry bsoap-server -mode bench serves), plus the transport server
// carrying it.
func BenchRuntime(tb testing.TB, opts serverpool.Options, sopts transport.ServerOptions) (*serverpool.Runtime, *transport.Server) {
	tb.Helper()
	rt := serverpool.New(opts)
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
	rt.Register(&soapdec.Schema{
		Namespace: workload.Namespace, Op: "sendDoubles",
		Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}, ack("sendDoublesResponse"))
	rt.Register(&soapdec.Schema{
		Namespace: workload.Namespace, Op: "sendInts",
		Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TInt)}},
	}, ack("sendIntsResponse"))
	rt.Register(&soapdec.Schema{
		Namespace: workload.Namespace, Op: "sendMIOs",
		Params: []soapdec.ParamSpec{{Name: "mios", Type: wire.ArrayOf(workload.MIOType())}},
	}, ack("sendMIOsResponse"))

	sopts.Handler = rt.HTTPHandler()
	sopts.Respond = true
	srv, err := transport.Listen("127.0.0.1:0", sopts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return rt, srv
}

// Pool builds a pooled client from opts with the suites' default of 5s
// socket timeouts filled in (a dropped response surfaces as a call
// error, not a hang). opts.Addr must be set.
func Pool(tb testing.TB, opts pool.Options) *pool.Pool {
	tb.Helper()
	if opts.Sender.WriteTimeout == 0 {
		opts.Sender.WriteTimeout = 5 * time.Second
	}
	if opts.Sender.ReadTimeout == 0 {
		opts.Sender.ReadTimeout = 5 * time.Second
	}
	p, err := pool.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p
}

// ClientPool is Pool with the single-connection defaults the serverpool
// suites use.
func ClientPool(tb testing.TB, addr string) *pool.Pool {
	tb.Helper()
	return Pool(tb, pool.Options{Size: 1, Addr: addr})
}
