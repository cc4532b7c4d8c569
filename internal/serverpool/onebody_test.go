package serverpool

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"bsoap/internal/core"
	"bsoap/internal/pool"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// The tests below hold the server to one retained body per template: a
// request that names its template (a delta sync or patch) is decoded
// against the patch base held for that template id — never against some
// other body that happens to have its length — and that base is the only
// copy of the bytes the replica keeps.

// stuffedCfg is the benchmark's intermediate stuffing: 18-character
// doubles and 9-character ints, which the values below always fit.
var stuffedCfg = core.Config{Width: core.WidthPolicy{Double: 18, Int: 9}}

// fitDouble returns a double whose shortest form fits 18 characters.
func fitDouble(rng *rand.Rand) float64 { return float64(rng.Int63n(1e15)) / 1e12 }

// newBenchRuntime registers the three workload operations; with oneWay
// their handlers answer nothing, so no response template is built.
func newBenchRuntime(opts Options, oneWay bool) *Runtime {
	rt := New(opts)
	for _, sc := range []*soapdec.Schema{
		{Namespace: workload.Namespace, Op: "sendDoubles",
			Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}}},
		{Namespace: workload.Namespace, Op: "sendInts",
			Params: []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TInt)}}},
		{Namespace: workload.Namespace, Op: "sendMIOs",
			Params: []soapdec.ParamSpec{{Name: "mios", Type: wire.ArrayOf(workload.MIOType())}}},
	} {
		respOp := sc.Op + "Response"
		rt.Register(sc, func() Handler {
			resp := wire.NewMessage(workload.Namespace, respOp)
			n := resp.AddInt("n", 0)
			return func(req *wire.Message) (*wire.Message, error) {
				if oneWay {
					return nil, nil
				}
				n.Set(int32(req.NumLeaves()))
				return resp, nil
			}
		})
	}
	return rt
}

// handlerSink is a delta-capable engine sink that hands every send
// straight to a runtime's HTTP handler on one connection id, keeping the
// peer's sync state the way transport.Sender does: an epoch is noted when
// its request is written, the peer turns capable at its first ack, and a
// resync forgets every epoch.
type handlerSink struct {
	h       transport.Handler
	conn    uint64
	capable bool
	synced  map[uint64]uint64
	bodies  map[uint64][]byte // last full body per template id
	buf     []byte
}

func newHandlerSink(rt *Runtime, conn uint64) *handlerSink {
	return &handlerSink{h: rt.HTTPHandler(), conn: conn,
		synced: map[uint64]uint64{}, bodies: map[uint64][]byte{}}
}

func (s *handlerSink) post(bufs net.Buffers, mode transport.DeltaMode, tid, epoch uint64) error {
	s.buf = s.buf[:0]
	for _, b := range bufs {
		s.buf = append(s.buf, b...)
	}
	req := &transport.Request{Method: "POST", ConnID: s.conn, Body: s.buf,
		DeltaMode: mode, DeltaTID: tid, DeltaEpoch: epoch}
	if mode != transport.DeltaNone {
		s.synced[tid] = epoch
	}
	if mode == transport.DeltaSync {
		s.bodies[tid] = bytes.Clone(s.buf)
	}
	_, err := s.h(req)
	if errors.Is(err, wire.ErrDeltaResync) {
		clear(s.synced)
	}
	if req.DeltaAck {
		s.capable = true
	}
	return err
}

func (s *handlerSink) Send(bufs net.Buffers) error { return s.post(bufs, transport.DeltaNone, 0, 0) }

func (s *handlerSink) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	return s.post(bufs, transport.DeltaSync, tid, epoch)
}

func (s *handlerSink) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	return s.post(bufs, transport.DeltaPatch, tid, newEpoch)
}

func (s *handlerSink) DeltaEpoch(tid uint64) (uint64, bool) {
	e, ok := s.synced[tid]
	return e, ok && s.capable
}

// touch gives k seeded leaves of m new values of the same width class.
func touch(rng *rand.Rand, m *wire.Message, k int) {
	for ; k > 0; k-- {
		m.SetLeafDouble(rng.Intn(m.NumLeaves()), fitDouble(rng))
	}
}

// heldCost is what one retained template must cost the replica: its
// body's capacity, a soapdec.LeafRange (8 bytes) a leaf and 256 for the
// rest.
func heldCost(body []byte, leaves int) int64 {
	return int64(cap(append([]byte(nil), body...)) + int(unsafe.Sizeof(soapdec.LeafRange{}))*leaves + 256)
}

// replicaSize reads conn's accounted footprint and its response stub's
// share of it.
func replicaSize(rt *Runtime, conn uint64) (size, stub int64) {
	slot, r := rt.acquire(reg.Key{Conn: conn})
	stub = int64(r.stub.Footprint())
	rt.release(slot)
	return int64(r.SizeBytes()), stub
}

// TestDeltaSameShapeReparsesOnlyChanges rotates K same-shape messages —
// each through its own engine, so each its own template id — over one
// connection, touching ten leaves a call. Every body has the same length,
// so a lookup by length would decode all K against the first one and
// re-lex a thousand leaves a call; by template id each patch re-lexes
// what it changed, each template is parsed in full once, and the replica
// holds one body per template.
func TestDeltaSameShapeReparsesOnlyChanges(t *testing.T) {
	const calls, changed, leaves = 200, 10, 1000
	check := func(t *testing.T, rt *Runtime, k int, before Stats, bodies [][]byte) {
		t.Helper()
		st := rt.Stats()
		patches := st.DeltaApplied - before.DeltaApplied
		if patches != calls || st.DeltaResyncs != 0 || st.SelfCheckFails != 0 {
			t.Fatalf("%d patches of %d calls, %d resyncs, %d self-check failures",
				patches, calls, st.DeltaResyncs, st.SelfCheckFails)
		}
		if per := float64(st.ValuesReparsed-before.ValuesReparsed) / float64(patches); per > 2*changed {
			t.Errorf("K=%d: %.1f leaves re-lexed per patch, want <= %d (%d changed)", k, per, 2*changed, changed)
		}
		if st.FullParses != int64(k) {
			t.Errorf("K=%d: %d full parses, want one per template", k, st.FullParses)
		}
		size, stub := replicaSize(rt, 1)
		want := stub
		for _, b := range bodies {
			want += heldCost(b, leaves)
		}
		if size != want {
			t.Errorf("K=%d: replica holds %d B, want %d (response stub %d + one body per template id)",
				k, size, want, stub)
		}
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rt := newBenchRuntime(Options{Delta: true, SelfCheck: true}, false)
			sink := newHandlerSink(rt, 1)
			rng := rand.New(rand.NewSource(int64(k)))
			msgs := make([]*wire.Message, k)
			stubs := make([]*core.Stub, k)
			for j := range msgs {
				msgs[j] = workload.NewDoubles(leaves, workload.FillMin).Msg
				touch(rng, msgs[j], leaves)
				stubs[j] = core.NewStub(stuffedCfg, sink)
				if _, err := stubs[j].Call(msgs[j]); err != nil {
					t.Fatal(err)
				}
			}
			before := rt.Stats()
			for call := 0; call < calls; call++ {
				j := call % k
				touch(rng, msgs[j], changed)
				if _, err := stubs[j].Call(msgs[j]); err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
			}
			var bodies [][]byte
			for _, b := range sink.bodies {
				bodies = append(bodies, b)
			}
			check(t, rt, k, before, bodies)
		})
	}

	// Two same-shape messages in flight at once on one pipelined
	// connection: each waits only for its own previous call.
	t.Run("pipelined depth 2", func(t *testing.T) {
		rt := newBenchRuntime(Options{Delta: true, SelfCheck: true}, false)
		srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
			Handler: rt.HTTPHandler(), Respond: true, ReadAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p, err := pool.New(pool.Options{Size: 1, Replicas: 2, PipelineDepth: 2, Delta: true,
			Addr: srv.Addr(), Config: stuffedCfg})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rng := rand.New(rand.NewSource(2))
		var msgs [2]*wire.Message
		var pending [2]*pool.Future
		wait := func(j int) {
			if pending[j] != nil {
				if _, err := pending[j].Wait(); err != nil {
					t.Fatal(err)
				}
				pending[j] = nil
			}
		}
		// Under stuffing every body of this shape is as long as a fresh one.
		body := renderFresh(t, workload.NewDoubles(leaves, workload.FillMin).Msg)
		bodies := [][]byte{body, body}
		for j := range msgs {
			msgs[j] = workload.NewDoubles(leaves, workload.FillMin).Msg
			touch(rng, msgs[j], leaves)
			if pending[j], err = p.CallAsync(msgs[j]); err != nil {
				t.Fatal(err)
			}
		}
		wait(0)
		wait(1)
		before := rt.Stats()
		for call := 0; call < calls; call++ {
			j := call % 2
			wait(j)
			touch(rng, msgs[j], changed)
			if pending[j], err = p.CallAsync(msgs[j]); err != nil {
				t.Fatal(err)
			}
		}
		wait(0)
		wait(1)
		if st := p.Stats(); st.Errors != 0 || st.DeltaSends != calls {
			t.Fatalf("client: %d errors, %d patch sends of %d calls", st.Errors, st.DeltaSends, calls)
		}
		check(t, rt, 2, before, bodies)
	})
}

// renderFresh is m's first-time serialization under stuffedCfg: the
// length, and so the capacity class, of every later body of m.
func renderFresh(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	sink := &captureSink{}
	if _, err := core.NewStub(stuffedCfg, sink).Call(m); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(sink.data)
}

// TestDeltaHoldsOneBodyPerTemplate holds the saving to memory the
// process actually gives back, not a term left out of the gauge: 32
// connections sync the benchmark's three sparse_delta_link messages, and
// the heap grows by what the same bodies cost 32 connections that send
// them without delta, give or take a tenth of the bodies. A replica that
// kept a second copy of each synced body for its decoder would grow by
// twice that.
func TestDeltaHoldsOneBodyPerTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var bodies [][]byte
	var leaves []int
	for _, m := range []*wire.Message{
		workload.NewDoubles(1000, workload.FillMin).Msg,
		workload.NewInts(1000, workload.FillMin).Msg,
		workload.NewMIOs(500, workload.FillMin).Msg,
	} {
		for i := 0; i < m.NumLeaves(); i++ {
			if m.LeafType(i).Kind == wire.Double {
				m.SetLeafDouble(i, fitDouble(rng))
			} else {
				m.SetLeafInt(i, rng.Int31n(1e9))
			}
		}
		bodies = append(bodies, renderFresh(t, m))
		leaves = append(leaves, m.NumLeaves())
	}

	const conns = 32
	var held int64 // what one connection's templates must cost
	var sum int64  // the bodies' capacity over all connections
	for j, b := range bodies {
		held += heldCost(b, leaves[j])
		sum += conns * int64(cap(append([]byte(nil), b...)))
	}
	grow := func(delta bool) (int64, *Runtime) {
		rt := newBenchRuntime(Options{Delta: delta}, true)
		h := rt.HTTPHandler()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for c := uint64(1); c <= conns; c++ {
			for j, b := range bodies {
				req := &transport.Request{Method: "POST", ConnID: c, Body: b}
				if delta {
					req.DeltaMode, req.DeltaTID, req.DeltaEpoch = transport.DeltaSync, uint64(j+1), 1
				}
				if _, err := h(req); err != nil {
					t.Fatal(err)
				}
				if req.DeltaAck != delta {
					t.Fatalf("delta %v: ack %v", delta, req.DeltaAck)
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		for c := uint64(1); c <= conns; c++ {
			if size, stub := replicaSize(rt, c); size != stub+held {
				t.Errorf("delta %v: conn %d holds %d B, want %d (stub %d + %d for three templates)",
					delta, c, size, stub+held, stub, held)
				break
			}
		}
		return int64(after.HeapInuse) - int64(before.HeapInuse), rt
	}
	off, rtOff := grow(false)
	on, rtOn := grow(true)
	runtime.KeepAlive(rtOff)
	runtime.KeepAlive(rtOn)
	t.Logf("heap growth: %d B delta off, %d B delta on; bodies %d B", off, on, sum)
	if excess := on - off; excess > sum/10 {
		t.Errorf("delta on grew the heap %d B more than delta off, %.0f%% of the %d B of bodies; want <= 10%%",
			excess, 100*float64(excess)/float64(sum), sum)
	}

	t.Run("undecodable sync", func(t *testing.T) {
		rt := newSumRuntime(Options{Delta: true})
		h := rt.HTTPHandler()
		good := newClient(8).body(t)
		bad := bytes.Clone(good)
		bad[bytes.Index(bad, []byte("<item>"))+len("<item>")] = 'x'
		sync := func(tid uint64, body []byte) (*transport.Request, error) {
			req := &transport.Request{Method: "POST", ConnID: 1, Body: body,
				DeltaMode: transport.DeltaSync, DeltaTID: tid, DeltaEpoch: 1}
			_, err := h(req)
			return req, err
		}
		if _, err := sync(1, good); err != nil {
			t.Fatal(err)
		}
		size, _ := replicaSize(rt, 1)

		// A new template whose body does not decode: no base, no ack, no
		// bytes — and a patch against it is refused for a resync.
		if req, err := sync(2, bad); err == nil || req.DeltaAck {
			t.Fatalf("undecodable sync: err %v, acked %v", err, req.DeltaAck)
		}
		if got, _ := replicaSize(rt, 1); got != size {
			t.Fatalf("undecodable sync moved the footprint %d -> %d", size, got)
		}
		frame := wire.AppendDeltaHeader(nil, 2, 1, 2, len(bad), wire.DeltaCRC(bad), 0)
		_, err := h(&transport.Request{Method: "POST", ConnID: 1, Body: frame, DeltaMode: transport.DeltaPatch})
		if !errors.Is(err, wire.ErrDeltaResync) {
			t.Fatalf("patch against the refused sync: %v, want a resync", err)
		}
		// A held template resynced with a body that does not decode is
		// given up, bytes and template together.
		if req, err := sync(1, bad); err == nil || req.DeltaAck {
			t.Fatalf("undecodable resync: err %v, acked %v", err, req.DeltaAck)
		}
		if got, stub := replicaSize(rt, 1); got != stub {
			t.Fatalf("after the held template's undecodable resync: %d B, want the stub's %d", got, stub)
		}
	})

	// A pool whose sync is refused recovers on its own: the refusal (a
	// 500 on a healthy connection) fails that one call and marks its
	// template suspect, the next call resends in full, and patches
	// resume — no other call fails.
	t.Run("pool recovers", func(t *testing.T) {
		rt := newBenchRuntime(Options{Delta: true, SelfCheck: true}, false)
		h := rt.HTTPHandler()
		var corrupted atomic.Bool
		srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true,
			Handler: func(req *transport.Request) ([]byte, error) {
				if req.DeltaMode == transport.DeltaSync && corrupted.CompareAndSwap(false, true) {
					req.Body[bytes.Index(req.Body, []byte("<item>"))+len("<item>")] = 'x'
				}
				return h(req)
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p, err := pool.New(pool.Options{Size: 1, Delta: true, Addr: srv.Addr(), Config: stuffedCfg})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		d := workload.NewDoubles(100, workload.FillMin)
		for call := 0; call < 20; call++ {
			touch(rng, d.Msg, 3)
			if _, err := p.Call(d.Msg); (err != nil) != (call == 0) {
				t.Fatalf("call %d: %v; want only call 0, the refused sync, to fail", call, err)
			}
		}
		st, cs := rt.Stats(), p.Stats()
		if !corrupted.Load() || cs.Errors != 1 || st.SelfCheckFails != 0 || cs.DeltaSends == 0 {
			t.Fatalf("corrupted %v; client errors %d, patch sends %d; server self-check failures %d",
				corrupted.Load(), cs.Errors, cs.DeltaSends, st.SelfCheckFails)
		}
	})
}

// TestDeltaBoundsDecodeStateUnderChurn: a client that keeps rebuilding
// templates under new ids leaves the server a base per id, up to
// maxDeltaBases. Only the newest reg.TemplatesPerOp bases of
// each operation keep their decode templates — the bound the length walk
// keeps per key — and the rest are charged their bytes alone. A patch
// against a base without a template is parsed in full from the patched
// bytes, which gives it a template back and takes one from its
// operation's least recently used base; the next patch is differential.
func TestDeltaBoundsDecodeStateUnderChurn(t *testing.T) {
	rt := newBenchRuntime(Options{Delta: true, SelfCheck: true}, true)
	h := rt.HTTPHandler()
	type base struct {
		tid    uint64
		msg    *wire.Message
		body   []byte
		epoch  uint64
		leaves int
	}
	var doubles, ints []*base
	post := func(b *base, req *transport.Request) {
		t.Helper()
		req.Method, req.ConnID = "POST", 1
		if _, err := h(req); err != nil {
			t.Fatalf("template %d: %v", b.tid, err)
		}
	}
	sync := func(b *base) {
		b.body = renderFresh(t, b.msg)
		b.epoch = 1
		post(b, &transport.Request{Body: b.body, DeltaMode: transport.DeltaSync, DeltaTID: b.tid, DeltaEpoch: 1})
	}
	// patch changes one leaf of b's message and sends the difference.
	patch := func(b *base, v float64) {
		b.msg.SetLeafDouble(0, v)
		next := renderFresh(t, b.msg)
		lo, hi := 0, len(next)
		for b.body[lo] == next[lo] {
			lo++
		}
		for b.body[hi-1] == next[hi-1] {
			hi--
		}
		frame := wire.AppendDeltaHeader(nil, b.tid, b.epoch, b.epoch+1, len(next), wire.DeltaCRC(next), 1)
		frame = wire.AppendDeltaRegionHeader(frame, lo, hi-lo)
		frame = append(frame, next[lo:hi]...)
		b.body, b.epoch = next, b.epoch+1
		post(b, &transport.Request{Body: frame, DeltaMode: transport.DeltaPatch})
	}
	// check wants every base's bytes charged, and a template on the
	// decoded ones only.
	check := func(what string, decoded ...*base) {
		t.Helper()
		size, want := replicaSize(rt, 1)
		for _, b := range append(doubles, ints...) {
			want += int64(cap(append([]byte(nil), b.body...)))
		}
		for _, b := range decoded {
			want += heldCost(b.body, b.leaves) - int64(cap(append([]byte(nil), b.body...)))
		}
		if size != want {
			t.Fatalf("%s: replica holds %d B, want %d", what, size, want)
		}
	}

	for j := 0; j < 10; j++ {
		b := &base{tid: uint64(j + 1), msg: workload.NewDoubles(10+j, workload.FillMin).Msg, leaves: 10 + j}
		doubles = append(doubles, b)
		sync(b)
	}
	for j := 0; j < 2; j++ {
		b := &base{tid: uint64(100 + j), msg: workload.NewInts(10+j, workload.FillMin).Msg, leaves: 10 + j}
		ints = append(ints, b)
		sync(b)
	}
	d := doubles
	check("after 10 sendDoubles and 2 sendInts syncs", d[9], d[8], d[7], d[6], ints[0], ints[1])

	before := rt.Stats()
	patch(d[0], 1.5)
	if st := rt.Stats(); st.FullParses != before.FullParses+1 || st.DeltaApplied != before.DeltaApplied+1 {
		t.Fatalf("patch against a base without a template: %+v, want one full parse", st)
	}
	check("after the oldest base's patch", d[0], d[9], d[8], d[7], ints[0], ints[1])

	before = rt.Stats()
	patch(d[0], 2.5)
	st := rt.Stats()
	if st.DiffDecodes != before.DiffDecodes+1 || st.ValuesReparsed != before.ValuesReparsed+1 || st.SelfCheckFails != 0 {
		t.Fatalf("second patch: %+v, want one differential decode of one leaf", st)
	}
	check("after the second patch", d[0], d[9], d[8], d[7], ints[0], ints[1])
}

// TestDeltaPatchDecodesDifferentially: a runtime with no option but
// Delta decodes a patch against its base's template, re-lexing the one
// changed leaf, and charges the template beside the body.
func TestDeltaPatchDecodesDifferentially(t *testing.T) {
	rt := newSumRuntime(Options{Delta: true})
	h := rt.HTTPHandler()
	c := newClient(8)
	a := c.body(t)
	c.arr.Set(3, 7.5)
	b := c.body(t)
	lo, hi := 0, len(b)
	for a[lo] == b[lo] {
		lo++
	}
	for a[hi-1] == b[hi-1] {
		hi--
	}
	frame := wire.AppendDeltaHeader(nil, 1, 1, 2, len(b), wire.DeltaCRC(b), 1)
	frame = wire.AppendDeltaRegionHeader(frame, lo, hi-lo)
	frame = append(frame, b[lo:hi]...)

	sync := &transport.Request{Method: "POST", ConnID: 1, Body: a,
		DeltaMode: transport.DeltaSync, DeltaTID: 1, DeltaEpoch: 1}
	if _, err := h(sync); err != nil || !sync.DeltaAck {
		t.Fatalf("sync: %v, acked %v", err, sync.DeltaAck)
	}
	resp, err := h(&transport.Request{Method: "POST", ConnID: 1, Body: frame, DeltaMode: transport.DeltaPatch})
	if err != nil || !bytes.Contains(resp, []byte(">32.5<")) { // 0+1+2+7.5+4+5+6+7
		t.Fatalf("patch: %v, response %s", err, resp)
	}
	if st := rt.Stats(); st.FullParses != 1 || st.DiffDecodes != 1 || st.ValuesReparsed != 1 || st.DeltaSyncs != 1 || st.DeltaApplied != 1 {
		t.Fatalf("stats %+v, want one full parse, one differential decode of one leaf, one sync, one patch", st)
	}
	if size, stub := replicaSize(rt, 1); size <= stub+int64(cap(append([]byte(nil), b...))) {
		t.Fatalf("replica holds %d B, want more than the stub's %d and one body: the base's template", size, stub)
	}
}
