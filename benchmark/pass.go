package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/pool"
	"bsoap/internal/serverpool"
	"bsoap/internal/wire"
)

// worker is one closed loop: mutate a message, call, wait for the
// response, next message. It owns its messages and its generator; the
// program under test only ever sees the messages.
type worker struct {
	id   int
	st   *stack
	rng  *rand.Rand
	msgs []*wire.Message
	tally
}

// tally is a worker's record of one pass; run starts each pass with a
// fresh one.
type tally struct {
	attempted, failed int
	firstErr          error
	// frames counts the calls that went out as patch frames and
	// frameBytes their size on the wire.
	frames, frameBytes int
	// lat holds one sample per successful call, in completion order, in
	// nanoseconds; marks[k] is len(lat) when window k closed and cpu[k]
	// the process CPU time at that moment (worker 0 only).
	lat      []uint32
	marks    []int
	cpu      []time.Duration
	nextMark time.Time
	// calls is the worker's half of the trace (traced passes only).
	calls []callSpan
}

// window is the length of the slices a timed pass is cut into; each
// yields one throughput, one set of latency percentiles and one CPU
// figure (see overWindows for how a pass is summarised from them).
const window = 500 * time.Millisecond

// maxCallRate and maxEventRate size the off-heap records of a pass: no
// worker completes more calls a second, no connection sees more reads
// or writes. A pass that did would spill its records onto the heap.
const (
	maxCallRate  = 200_000
	maxEventRate = 400_000
)

func recordsFor(dur time.Duration, perSecond int) int {
	return int(dur.Seconds()*float64(perSecond)) + 4096
}

// pass is the stop rule and clock of one run over a stack.
type pass struct {
	deadline time.Time // zero: no time limit
	cycles   int       // zero: no cycle limit
	window   time.Duration
}

// done is asked at each cycle boundary — a worker stops only after a
// whole rotation over its messages, so the templates resident at the
// end of a pass do not depend on where the clock ran out.
func (p *pass) done(cycle int) bool {
	if p.cycles > 0 && cycle >= p.cycles {
		return true
	}
	return !p.deadline.IsZero() && !time.Now().Before(p.deadline)
}

// passResult is what one pass measured, before it is turned into named
// metrics.
type passResult struct {
	attempted, failed  int
	firstErr           error
	frames, frameBytes int
	elapsed            time.Duration
	windows            []windowStat
	lat                []uint32 // every sample, sorted
	calls              []callSpan

	client  pool.Stats       // delta over the pass
	server  serverpool.Stats // delta over the pass
	mallocs uint64
	bytes   uint64
}

// windowStat summarises the calls that completed in one window.
type windowStat struct {
	calls    int
	seconds  float64
	p50, p90 float64 // µs
	cpu      time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives every worker for dur (or, with dur zero, for exactly
// cycles rotations over its messages) and gathers the pass's records.
func (st *stack) run(dur time.Duration, cycles int) *passResult {
	p := &pass{cycles: cycles, window: window}
	if dur > 0 && dur < 6*window {
		p.window = dur / 6
	}
	st.records.release()
	c0, s0 := st.pool.Stats(), st.rt.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	if dur > 0 {
		p.deadline = start.Add(dur)
	}
	var wg sync.WaitGroup
	for _, w := range st.workers {
		w.tally = tally{lat: offHeap[uint32](&st.records, recordsFor(dur, maxCallRate)), nextMark: start.Add(p.window)}
		if st.tr != nil {
			w.calls = offHeap[callSpan](&st.records, recordsFor(dur, maxCallRate))
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if st.tr != nil {
				st.tr.goroutines.Store(goroutineID(), w.id)
			}
			if st.sp.depth > 0 {
				w.pipelined(p)
			} else {
				w.serial(p)
			}
		}(w)
	}
	wg.Wait()
	res := &passResult{elapsed: time.Since(start)}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	res.mallocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	c1 := st.pool.Stats()
	res.client, res.server = clientDelta(c1, c0), serverDelta(st.rt.Stats(), s0)
	// A future that never resolved is a lost call.
	res.failed += int(c1.FuturesPending)

	full := -1
	for _, w := range st.workers {
		res.attempted += w.attempted
		res.failed += w.failed
		res.frames += w.frames
		res.frameBytes += w.frameBytes
		if res.firstErr == nil {
			res.firstErr = w.firstErr
		}
		res.calls = append(res.calls, w.calls...)
		if full < 0 || len(w.marks) < full {
			full = len(w.marks)
		}
	}
	// stat summarises one window's samples; it sorts them in place.
	stat := func(samples []uint32, length time.Duration, cpu time.Duration) windowStat {
		slices.Sort(samples)
		return windowStat{
			calls: len(samples), seconds: length.Seconds(), cpu: cpu,
			p50: quantileUs(samples, 0.50), p90: quantileUs(samples, 0.90),
		}
	}
	var scratch []uint32
	prevCPU := cpu0
	for k := 0; k < full; k++ {
		scratch = scratch[:0]
		for _, w := range st.workers {
			lo := 0
			if k > 0 {
				lo = w.marks[k-1]
			}
			scratch = append(scratch, w.lat[lo:w.marks[k]]...)
		}
		cpu := st.workers[0].cpu[k]
		res.windows = append(res.windows, stat(scratch, p.window, cpu-prevCPU))
		prevCPU = cpu
	}
	for _, w := range st.workers {
		res.lat = append(res.lat, w.lat...)
	}
	whole := stat(res.lat, res.elapsed, cpu1-cpu0)
	if len(res.windows) == 0 {
		// Too short for a full window (fixed-cycle runs): the pass is
		// its own window.
		res.windows = []windowStat{whole}
	}
	return res
}

// serial is the closed loop over the serial call path.
func (w *worker) serial(p *pass) {
	n := len(w.msgs)
	ver := w.st.ver
	for i := 0; ; i++ {
		if i%n == 0 && p.done(i/n) {
			return
		}
		m := w.msgs[i%n]
		id := w.callID(i)
		t0 := time.Now()
		w.st.sp.mutate(w.rng, m)
		t1 := time.Now()
		if ver != nil {
			ver.order.Lock()
			ver.expect(m)
		}
		w.begin(id)
		ci, err := w.st.pool.Call(m)
		t2 := time.Now()
		if ver != nil {
			ver.order.Unlock()
		}
		w.record(p, id, t0, t1, t2, ci, err)
	}
}

// pipelined is the closed loop over the async call path: every message
// is kept in flight, and the oldest future is awaited before its
// message is mutated and resubmitted. A call runs from CallAsync to the
// return of Future.Wait.
func (w *worker) pipelined(p *pass) {
	n := len(w.msgs)
	type inflight struct {
		fut    *pool.Future
		id     uint64
		t0, t1 time.Time
	}
	slots := make([]inflight, n)
	wait := func(s *inflight) {
		if s.fut == nil {
			return
		}
		ci, err := s.fut.Wait()
		w.record(p, s.id, s.t0, s.t1, time.Now(), ci, err)
		s.fut = nil
	}
	for i := 0; ; i++ {
		s := &slots[i%n]
		wait(s)
		if i%n == 0 && p.done(i/n) {
			for j := 1; j < n; j++ {
				wait(&slots[j])
			}
			return
		}
		m := w.msgs[i%n]
		s.id = w.callID(i)
		s.t0 = time.Now()
		w.st.sp.mutate(w.rng, m)
		s.t1 = time.Now()
		if w.st.ver != nil {
			w.st.ver.expect(m)
		}
		w.begin(s.id)
		fut, err := w.st.pool.CallAsync(m)
		if err != nil {
			w.record(p, s.id, s.t0, s.t1, time.Now(), core.CallInfo{}, err)
			continue
		}
		s.fut = fut
	}
}

// callID numbers worker w's i-th call; ids are unique across workers
// and never zero.
func (w *worker) callID(i int) uint64 {
	return uint64(i)*uint64(len(w.st.workers)) + uint64(w.id) + 1
}

// begin tells the tracer which call this worker's next request bytes
// belong to.
func (w *worker) begin(id uint64) {
	if tr := w.st.tr; tr != nil {
		tr.current[w.id].Store(id)
	}
}

// record files one finished call: mutate ran t0→t1, the call t1→t2.
func (w *worker) record(p *pass, id uint64, t0, t1, t2 time.Time, ci core.CallInfo, err error) {
	for !t2.Before(w.nextMark) {
		w.marks = append(w.marks, len(w.lat))
		if w.id == 0 {
			w.cpu = append(w.cpu, cpuTime())
		}
		w.nextMark = w.nextMark.Add(p.window)
	}
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.lat = append(w.lat, uint32(t2.Sub(t1)))
	if ci.DeltaSent {
		w.frames++
		w.frameBytes += ci.WireBytes
	}
	if tr := w.st.tr; tr != nil && tr.on.Load() {
		w.calls = append(w.calls, callSpan{id: id, mutate: tr.since(t0), start: tr.since(t1), end: tr.since(t2)})
	}
}

func clientDelta(a, b pool.Stats) pool.Stats {
	a.Calls -= b.Calls
	a.Errors -= b.Errors
	a.FirstTimeSends -= b.FirstTimeSends
	a.ContentMatches -= b.ContentMatches
	a.StructuralMatches -= b.StructuralMatches
	a.PartialMatches -= b.PartialMatches
	a.BytesOnWire -= b.BytesOnWire
	a.BytesSerialized -= b.BytesSerialized
	a.DeltaSends -= b.DeltaSends
	a.DeltaResyncs -= b.DeltaResyncs
	a.ValuesRewritten -= b.ValuesRewritten
	a.Shifts -= b.Shifts
	a.Steals -= b.Steals
	a.Checkouts -= b.Checkouts
	a.CheckoutWaits -= b.CheckoutWaits
	a.Retries -= b.Retries
	a.TemplateRebinds -= b.TemplateRebinds
	a.TemplateStaleRebinds -= b.TemplateStaleRebinds
	a.TemplateEvictions -= b.TemplateEvictions
	a.PipelineStalls -= b.PipelineStalls
	return a
}

func serverDelta(a, b serverpool.Stats) serverpool.Stats {
	a.Requests -= b.Requests
	a.FullParses -= b.FullParses
	a.DiffDecodes -= b.DiffDecodes
	a.ValuesReparsed -= b.ValuesReparsed
	a.SelfCheckFails -= b.SelfCheckFails
	a.ReplicaEvictions -= b.ReplicaEvictions
	a.DDSKeyEvictions -= b.DDSKeyEvictions
	a.DeltaApplied -= b.DeltaApplied
	a.DeltaResyncs -= b.DeltaResyncs
	return a
}
