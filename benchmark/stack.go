package main

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/faultwire"
	"bsoap/internal/pool"
	"bsoap/internal/replica"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// warmupPasses is how many untimed cycles over a worker's messages the
// set-up runs before anything is measured.
const warmupPasses = 32

// stack is the system under test for one pass: the real server
// (transport.Serve carrying a serverpool.Runtime with differential
// deserialization on) and the real pooled client, joined by loopback
// TCP inside this process, plus the workers that drive it.
type stack struct {
	sp      *spec
	rt      *serverpool.Runtime
	srv     *transport.Server
	pool    *pool.Pool
	workers []*worker
	// tr records spans at the stack's seams; nil on untraced passes.
	tr *tracer
	// ver checks every decoded request against the message the client
	// sent; nil except on the verification pass.
	ver *verifier
	// records holds the workers' per-call records of the current run.
	records arena
}

// schemas are the three workload operations the server acknowledges,
// the same registry `bsoap-server -mode bench` serves.
var schemas = []*soapdec.Schema{
	{Namespace: workload.Namespace, Op: "sendDoubles",
		Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}}},
	{Namespace: workload.Namespace, Op: "sendInts",
		Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TInt)}}},
	{Namespace: workload.Namespace, Op: "sendMIOs",
		Params: []soapdec.ParamSpec{{Name: "mios", Type: wire.ArrayOf(workload.MIOType())}}},
}

func (sp *spec) config() core.Config {
	return core.Config{EnableStealing: true, Width: sp.width}
}

// newStack brings the listener up, builds the workers' messages from
// seed, dials the pool and runs the warm-up passes: everything setup_s
// times. tr and verify select the traced and the verification variants.
func newStack(sp *spec, seed int64, tr *tracer, verify bool) (*stack, error) {
	st := &stack{sp: sp, tr: tr}
	if verify {
		st.ver = &verifier{}
	}
	st.rt = serverpool.New(serverpool.Options{
		DifferentialDeserialization: true,
		Core:                        sp.config(),
		Delta:                       sp.delta,
		SelfCheck:                   verify,
	})
	for _, sc := range schemas {
		st.rt.Register(sc, ackFactory(st.ver, sc.Op+"Response"))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	handler := st.rt.HTTPHandler()
	dialer := transport.DefaultDialer
	if sp.linkBps > 0 {
		dialer = faultwire.Bandwidth(sp.linkBps).Dial(dialer)
	}
	if tr != nil {
		ln = tr.wrapListener(ln)
		handler = tr.wrapHandler(handler)
		dialer = tr.wrapDialer(dialer)
	}
	st.srv = transport.Serve(ln, transport.ServerOptions{Handler: handler, Respond: true, ReadAhead: sp.depth})
	st.pool, err = pool.New(pool.Options{
		Addr:          st.srv.Addr(),
		Size:          sp.workers,
		Replicas:      4,
		Config:        sp.config(),
		PipelineDepth: sp.depth,
		Delta:         sp.delta,
		Sender: transport.SenderOptions{
			ExpectResponse: true,
			Dialer:         dialer,
			// A hung peer fails the call instead of hanging the run.
			WriteTimeout: 5 * time.Second,
			ReadTimeout:  5 * time.Second,
		},
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("pool: %w", err)
	}
	for i := 0; i < sp.workers; i++ {
		w := &worker{id: i, st: st}
		// Every attempt builds the same messages at new addresses.
		for attempt := 0; attempt < 1000; attempt++ {
			w.rng = rand.New(rand.NewSource(seed*1000 + int64(i)))
			w.msgs = sp.build(w.rng)
			if i == 0 || sameReplica(w.msgs, st.workers[0].msgs) {
				break
			}
		}
		st.workers = append(st.workers, w)
	}
	if res := st.run(0, warmupPasses); res.failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed: %v", res.failed, res.attempted, res.firstErr)
	}
	return st, nil
}

// sameReplica reports whether each of a worker's messages prefers the
// replica the first worker's message of the same structure prefers. The
// pool picks a message's preferred replica by hashing its heap address,
// so left to the allocator a two-worker run lands in one of four
// regimes — no, one, two or all three structures contended, 0 to 50 %
// rebinds, 23 k down to 15 k calls/s. The workload means the last one,
// so set-up rebuilds a worker's messages until they collide.
func sameReplica(msgs, first []*wire.Message) bool {
	for j, m := range msgs {
		a := replica.Affinity64(reflect.ValueOf(m).Pointer())
		b := replica.Affinity64(reflect.ValueOf(first[j]).Pointer())
		if a%2 != b%2 { // two workers keep two replicas per entry busy
			return false
		}
	}
	return true
}

// close stops the client, then the server, waits for both and drops
// the last run's records.
func (st *stack) close() {
	if st.pool != nil {
		st.pool.Close()
	}
	st.srv.Close()
	st.records.release()
}

// ackFactory builds the per-replica handler every operation gets: it
// answers with the request's leaf count through a reused response
// message, which is what keeps the response-side stub warm. With a
// verifier it first checks the request against the message announced.
func ackFactory(ver *verifier, respOp string) serverpool.HandlerFactory {
	return func() serverpool.Handler {
		resp := wire.NewMessage(workload.Namespace, respOp)
		n := resp.AddInt("n", 0)
		return func(req *wire.Message) (*wire.Message, error) {
			if ver != nil {
				if err := ver.check(req); err != nil {
					return nil, err
				}
			}
			n.Set(int32(req.NumLeaves()))
			return resp, nil
		}
	}
}

// verifier is the verification pass's oracle: workers announce each
// message before sending it, and the server-side handler compares what
// it decoded with the announced message, leaf by leaf.
type verifier struct {
	// order makes announce-then-send one step when two serial workers
	// share the queue, so arrival order equals announcement order.
	order sync.Mutex

	mu         sync.Mutex
	expected   []*wire.Message
	mismatches int
}

func (v *verifier) expect(m *wire.Message) {
	v.mu.Lock()
	v.expected = append(v.expected, m)
	v.mu.Unlock()
}

func (v *verifier) check(got *wire.Message) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.expected) == 0 {
		v.mismatches++
		return fmt.Errorf("verify: request with no announced message")
	}
	want := v.expected[0]
	v.expected = v.expected[1:]
	if err := sameLeaves(got, want); err != nil {
		v.mismatches++
		return err
	}
	return nil
}

// sameLeaves reports the first difference between a decoded request and
// the client's message.
func sameLeaves(got, want *wire.Message) error {
	if got.Operation() != want.Operation() || got.NumLeaves() != want.NumLeaves() {
		return fmt.Errorf("verify: decoded %s with %d leaves, sent %s with %d",
			got.Operation(), got.NumLeaves(), want.Operation(), want.NumLeaves())
	}
	for i := 0; i < want.NumLeaves(); i++ {
		kind := want.LeafType(i).Kind
		same := got.LeafType(i).Kind == kind
		if same {
			switch kind {
			case wire.Double:
				same = got.LeafDouble(i) == want.LeafDouble(i)
			case wire.Int:
				same = got.LeafInt(i) == want.LeafInt(i)
			}
		}
		if !same {
			return fmt.Errorf("verify: %s leaf %d differs from the message sent", want.Operation(), i)
		}
	}
	return nil
}
