package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/fastconv"
	"bsoap/internal/replica"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
)

// probeResult is what the staged probes measured: each layer's exported
// entry point, alone on one goroutine, fed the workload's own messages
// and the bodies they serialize to.
type probeResult struct {
	metrics []metric

	// Per-call costs the two reconciliation figures are built from.
	leavesPerCall    float64
	contentMatchCall float64 // ns, Stub.Call of an untouched message
	rewriteLeaf      float64 // ns, extra per rewritten leaf
	firstTimeCall    float64 // ns
	deltaEncode      float64 // ns per patch frame
	deltaParse       float64
	acquireRelease   float64
	readResponse     float64
	fastDecodeCall   float64
	fullDecodeCall   float64
}

// measure repeats op until budget is spent and returns the median over
// the rounds of one unit's cost; op reports the nanoseconds it timed
// and the units it did, and a round that did none is skipped. The median
// shrugs off the round a slow episode of the box fell into.
func measure(budget time.Duration, op func() (ns, units int64)) float64 {
	var costs []float64
	deadline := time.Now().Add(budget)
	for rounds := 0; rounds < 3 || time.Now().Before(deadline); rounds++ {
		if ns, units := op(); units > 0 {
			costs = append(costs, float64(ns)/float64(units))
		}
	}
	return median(costs)
}

func lookupSchema(op string) (*soapdec.Schema, bool) {
	for _, sc := range schemas {
		if sc.Op == op {
			return sc, true
		}
	}
	return nil, false
}

// frameSink is the delta-capable discard sink, keeping a copy of the
// last patch frame it was handed.
type frameSink struct {
	*transport.DeltaDiscardSink
	frame []byte
}

func (f *frameSink) SendDelta(bufs net.Buffers, tid, epoch uint64) error {
	f.frame = f.frame[:0]
	for _, b := range bufs {
		f.frame = append(f.frame, b...)
	}
	return f.DeltaDiscardSink.SendDelta(bufs, tid, epoch)
}

// captureConn is a net.Conn that keeps what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }
func (c *captureConn) RemoteAddr() net.Addr             { return nil }

// probeEntry is the smallest replica.Entry.
type probeEntry struct{}

func (probeEntry) SizeBytes() int { return 0 }
func (probeEntry) ReleaseArenas() {}

// runProbes pushes the workload's messages through each layer for
// budget apiece.
func runProbes(sp *spec, seed int64, budget time.Duration) (*probeResult, error) {
	rng := rand.New(rand.NewSource(seed))
	msgs := sp.build(rng)
	cfg := sp.config()
	pr := &probeResult{}
	add := func(name string, v float64, unit string) { pr.metrics = append(pr.metrics, metric{name, v, unit}) }
	for _, m := range msgs {
		pr.leavesPerCall += float64(m.NumLeaves()) / float64(len(msgs))
	}

	// The body stream: what the workload's calls serialize to, round by
	// round, bounded to about 8 MB.
	var buf bytes.Buffer
	capture := core.NewStub(cfg, transport.WriterSink{W: &buf})
	var rounds [][][]byte // [round][message]
	for total := 0; len(rounds) < 32 && total < 8<<20; {
		round := make([][]byte, len(msgs))
		for j, m := range msgs {
			sp.mutate(rng, m)
			buf.Reset()
			if _, err := capture.Call(m); err != nil {
				return nil, fmt.Errorf("probe: capture: %w", err)
			}
			round[j] = bytes.Clone(buf.Bytes())
			total += len(round[j])
		}
		rounds = append(rounds, round)
	}
	capture.Store().ReleaseAll()
	var stream [][]byte // in call order
	for _, round := range rounds {
		stream = append(stream, round...)
	}
	next := 0
	body := func() []byte { next++; return stream[next%len(stream)] }

	// fastconv: the conversion kernel over the values the workload holds.
	var doubles []float64
	var ints []int32
	for _, m := range msgs {
		for i := 0; i < m.NumLeaves(); i++ {
			if m.LeafType(i).Kind == wire.Double {
				doubles = append(doubles, m.LeafDouble(i))
			} else {
				ints = append(ints, m.LeafInt(i))
			}
		}
	}
	for len(ints) < 1024 { // a workload without int leaves still names its int stream
		ints = append(ints, fitInt(rng))
	}
	var field [32]byte
	add("fastconv.write_double_ns", measure(budget, func() (int64, int64) {
		t0 := time.Now()
		for _, v := range doubles {
			fastconv.WriteDouble(field[:], v)
		}
		return int64(time.Since(t0)), int64(len(doubles))
	}), "ns")
	add("fastconv.write_int_ns", measure(budget, func() (int64, int64) {
		t0 := time.Now()
		for _, v := range ints {
			fastconv.WriteInt(field[:], v)
		}
		return int64(time.Since(t0)), int64(len(ints))
	}), "ns")

	// core: Stub.Call into a discard sink. One stub per message, as a
	// pooled engine holds one template.
	stubs := make([]*core.Stub, len(msgs))
	for j, m := range msgs {
		stubs[j] = core.NewStub(cfg, transport.NewDiscardSink())
		if _, err := stubs[j].Call(m); err != nil {
			return nil, fmt.Errorf("probe: core: %w", err)
		}
	}
	call := func(s *core.Stub, m *wire.Message) (int64, core.CallInfo) {
		t0 := time.Now()
		ci, _ := s.Call(m)
		return int64(time.Since(t0)), ci
	}
	i := 0
	pr.contentMatchCall = measure(budget, func() (int64, int64) {
		i++
		ns, _ := call(stubs[i%len(msgs)], msgs[i%len(msgs)])
		return ns, 1
	})
	add("core.content_match_ns_per_leaf", pr.contentMatchCall/pr.leavesPerCall, "ns")
	pr.rewriteLeaf = measure(budget, func() (int64, int64) {
		i++
		m := msgs[i%len(msgs)]
		sp.mutate(rng, m)
		ns, ci := call(stubs[i%len(msgs)], m)
		if ci.ValuesRewritten == 0 {
			return 0, 0
		}
		return max(ns-int64(pr.contentMatchCall), 0), int64(ci.ValuesRewritten)
	})
	add("core.rewrite_ns_per_leaf", pr.rewriteLeaf, "ns")
	pr.firstTimeCall = measure(budget, func() (int64, int64) {
		i++
		s := core.NewStub(cfg, transport.NewDiscardSink())
		ns, _ := call(s, msgs[i%len(msgs)])
		s.Store().ReleaseAll()
		return ns, 1
	})
	add("core.first_time_ns_per_leaf", pr.firstTimeCall/pr.leavesPerCall, "ns")
	for _, s := range stubs {
		s.Store().ReleaseAll()
	}

	// wire: patch-frame encode against the delta-capable discard sink,
	// and parse of the frames it was handed.
	sink := &frameSink{DeltaDiscardSink: transport.NewDeltaDiscardSink()}
	var frames [][]byte
	for j, m := range msgs {
		stubs[j] = core.NewStub(cfg, sink)
		if _, err := stubs[j].Call(m); err != nil {
			return nil, fmt.Errorf("probe: wire: %w", err)
		}
	}
	pr.deltaEncode = measure(budget, func() (int64, int64) {
		i++
		m := msgs[i%len(msgs)]
		sp.mutate(rng, m)
		ci, _ := stubs[i%len(msgs)].Call(m)
		if !ci.DeltaSent {
			return 0, 0
		}
		if len(frames) < 64 {
			frames = append(frames, bytes.Clone(sink.frame))
		}
		return ci.DeltaEncodeNs, 1
	})
	add("wire.delta_encode_ns", pr.deltaEncode, "ns")
	var frame wire.DeltaFrame
	pr.deltaParse = measure(budget, func() (int64, int64) {
		t0 := time.Now()
		for _, f := range frames {
			_ = wire.ParseDeltaFrame(&frame, f)
		}
		return int64(time.Since(t0)), int64(len(frames))
	})
	add("wire.delta_parse_ns", pr.deltaParse, "ns")
	for _, s := range stubs {
		s.Store().ReleaseAll()
	}

	// transport: a full round trip of a captured body to a responding
	// server with no handler, then the two parsers over captured bytes.
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		return nil, fmt.Errorf("probe: transport: %w", err)
	}
	sender, err := transport.Dial(srv.Addr(), transport.SenderOptions{ExpectResponse: true, ReadTimeout: 5 * time.Second})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("probe: transport: %w", err)
	}
	var sendErr error
	add("transport.roundtrip_ns", measure(budget, func() (int64, int64) {
		t0 := time.Now()
		if err := sender.Send(net.Buffers{body()}); err != nil {
			sendErr = err
		}
		return int64(time.Since(t0)), 1
	}), "ns")
	sender.Close()
	srv.Close()
	if sendErr != nil {
		return nil, fmt.Errorf("probe: transport: %w", sendErr)
	}

	rt := serverpool.New(serverpool.Options{DifferentialDeserialization: true, Core: cfg})
	for _, sc := range schemas {
		rt.Register(sc, ackFactory(nil, sc.Op+"Response"))
	}
	var rawReq, rawResp [][]byte
	for _, b := range rounds[0] {
		conn := &captureConn{}
		if err := transport.NewSender(conn, transport.SenderOptions{}).Send(net.Buffers{b}); err != nil {
			return nil, fmt.Errorf("probe: transport: %w", err)
		}
		rawReq = append(rawReq, conn.buf.Bytes())
		resp, err := rt.Handle(1, "probe", b)
		if err != nil {
			return nil, fmt.Errorf("probe: serverpool: %w", err)
		}
		var out bytes.Buffer
		if err := transport.WriteResponse(&out, 200, "text/xml; charset=utf-8", resp); err != nil {
			return nil, err
		}
		rawResp = append(rawResp, out.Bytes())
	}
	var (
		rd   bytes.Reader
		br   = bufio.NewReaderSize(&rd, 32*1024)
		req  transport.Request
		resp transport.Response
	)
	parse := func(raws [][]byte, read func() error) float64 {
		return measure(budget, func() (int64, int64) {
			t0 := time.Now()
			for _, raw := range raws {
				rd.Reset(raw)
				br.Reset(&rd)
				_ = read()
			}
			return int64(time.Since(t0)), int64(len(raws))
		})
	}
	add("transport.read_request_ns", parse(rawReq, func() error { return transport.ReadRequestInto(br, &req) }), "ns")
	pr.readResponse = parse(rawResp, func() error { return transport.ReadResponseInto(br, &resp) })
	add("transport.read_response_ns", pr.readResponse, "ns")

	// xmlparse and soapdec: the full-parse path the fast path avoids.
	add("xmlparse.scan_ns_per_kb", measure(budget, func() (int64, int64) {
		b := body()
		t0 := time.Now()
		p := xmlparse.NewParser(b)
		for {
			tok, err := p.Next()
			if err != nil || tok.Kind == xmlparse.EOF {
				break
			}
		}
		return int64(time.Since(t0)) * 1024, int64(len(b))
	}), "ns/KB")
	add("soapdec.decode_ns_per_leaf", measure(budget, func() (int64, int64) {
		b := body()
		t0 := time.Now()
		res, err := soapdec.Decode(b, lookupSchema, false)
		if err != nil {
			return 0, 0
		}
		return int64(time.Since(t0)), int64(res.Msg.NumLeaves())
	}), "ns")

	// diffdeser: a warmed deserializer fed each message's successive
	// bodies (the fast path), and a cold one per body (the full parse).
	decode := func(d *diffdeser.Deserializer, key string, b []byte) (int64, diffdeser.Info) {
		t0 := time.Now()
		_, info, err := d.Decode(key, b)
		if err != nil {
			return 0, info
		}
		return int64(time.Since(t0)), info
	}
	warm := diffdeser.New(lookupSchema)
	j, r := 0, 0
	pr.fastDecodeCall = measure(budget, func() (int64, int64) {
		if r++; r == len(rounds) {
			r, j = 0, (j+1)%len(msgs)
		}
		ns, info := decode(warm, msgs[j].Operation(), rounds[r][j])
		if info.FullParse {
			return 0, 0
		}
		return ns, 1
	})
	add("diffdeser.fast_ns_per_leaf", pr.fastDecodeCall/pr.leavesPerCall, "ns")
	pr.fullDecodeCall = measure(budget, func() (int64, int64) {
		ns, _ := decode(diffdeser.New(lookupSchema), "cold", body())
		return ns, 1
	})
	add("diffdeser.full_ns_per_leaf", pr.fullDecodeCall/pr.leavesPerCall, "ns")

	// serverpool: Runtime.Handle over the body stream in call order.
	add("serverpool.handle_ns", measure(budget, func() (int64, int64) {
		b := body()
		t0 := time.Now()
		_, _ = rt.Handle(1, "probe", b)
		return int64(time.Since(t0)), 1
	}), "ns")

	// replica: acquire and release of the workload's own template keys.
	reg := replica.NewRegistry(replica.RegistryOptions[probeEntry]{
		MaxPerGroup: 4,
		New:         func(replica.Key) probeEntry { return probeEntry{} },
	})
	keys := make([]replica.Key, len(msgs))
	for j, m := range msgs {
		keys[j] = replica.Key{Group: m.Operation(), Sub: m.Signature()}
	}
	pr.acquireRelease = measure(budget, func() (int64, int64) {
		t0 := time.Now()
		for n := 0; n < 256; n++ {
			slot, _ := reg.Acquire(keys[n%len(keys)])
			reg.Release(slot)
		}
		return int64(time.Since(t0)), 256
	})
	add("replica.acquire_release_ns", pr.acquireRelease, "ns")

	// trace: the flight recorder's hook as the call sites write it, with
	// the recorder off and on.
	rec := trace.New(trace.DefaultSize)
	hook := func() (int64, int64) {
		t0 := time.Now()
		for n := int64(0); n < 4096; n++ {
			if rec.Enabled() {
				rec.Rec(1, trace.KindStage, n, n, 0)
			}
		}
		return int64(time.Since(t0)), 4096
	}
	add("trace.rec_off_ns", measure(budget, hook), "ns")
	rec.Enable()
	add("trace.rec_on_ns", measure(budget, hook), "ns")
	return pr, nil
}
