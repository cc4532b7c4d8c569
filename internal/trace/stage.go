package trace

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Stage identifies one segment of a call's end-to-end latency. Client
// stages are measured by internal/pool, server stages by
// internal/transport and internal/serverpool; together they partition a
// traced call's wall-clock time so a tail outlier can be attributed to
// a specific pipeline segment (serialize vs. wire vs. decode vs.
// handler) rather than to "the call".
type Stage uint8

const (
	// StageCheckout is the client's wait for a free pooled connection.
	StageCheckout Stage = iota
	// StageSerialize is differential serialization on the client: the
	// stub's Call time minus time spent inside the transport sink.
	StageSerialize
	// StagePipelineQueue is the time a submit spent inside its
	// connection's pipeline: blocked on the in-flight window, then
	// writing the request.
	StagePipelineQueue
	// StageWire is wire time as seen by the client: request written to
	// response read, so it includes the server's processing.
	StageWire
	// StageServerQueue is server-side admission and read-ahead queueing:
	// request fully parsed to handler dispatch.
	StageServerQueue
	// StageDecode is server-side request decoding (differential fast
	// path or full parse).
	StageDecode
	// StageHandler is the application handler's own execution time.
	StageHandler
	// StageRespond is server-side differential response serialization.
	StageRespond
	// StageWrite is the server writing the response onto the socket.
	StageWrite
	// StageDeltaEncode is the client encoding a differential-transmission
	// patch frame (dirty-region walk + body checksum).
	StageDeltaEncode
	// StageDeltaApply is the server applying a patch frame to its held
	// template base (region copies + checksum verification).
	StageDeltaApply

	// StageCount is the number of stages; valid Stage values are
	// 0..StageCount-1.
	StageCount = int(StageDeltaApply) + 1
)

var stageNames = [StageCount]string{
	StageCheckout:      "checkout",
	StageSerialize:     "serialize",
	StagePipelineQueue: "pipeline_queue",
	StageWire:          "wire",
	StageServerQueue:   "server_queue",
	StageDecode:        "decode",
	StageHandler:       "handler",
	StageRespond:       "respond",
	StageWrite:         "write",
	StageDeltaEncode:   "delta_encode",
	StageDeltaApply:    "delta_apply",
}

// String returns the stage's stable wire name (used as the Prometheus
// stage label value and by the inspector).
func (s Stage) String() string {
	if int(s) < StageCount {
		return stageNames[s]
	}
	return "unknown"
}

// histBuckets is a Hist's resolution: power-of-two nanosecond buckets,
// bucket i counting durations with 2^(i-1) <= d < 2^i ns (bucket 0 is
// zero), covering ~1ns to ~9min.
const histBuckets = 40

// Hist is the tree's one latency distribution: an allocation-free
// histogram of nanosecond durations in power-of-two buckets with count,
// sum and maximum, all atomic (the pool's call latency, each stage).
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

// Observe records one duration (negative values count as zero).
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// SumNs returns the cumulative observed nanoseconds.
func (h *Hist) SumNs() int64 { return h.sum.Load() }

// MaxNs returns the largest observation.
func (h *Hist) MaxNs() int64 { return h.max.Load() }

// Buckets copies the per-bucket (non-cumulative) counts into dst, which
// should hold StageBucketCount entries, and returns their sum as the
// count: +Inf then never reads below the last finite bucket, however an
// Observe races the copy.
func (h *Hist) Buckets(dst []int64) int64 {
	var n int64
	for i := 0; i < histBuckets && i < len(dst); i++ {
		dst[i] = h.buckets[i].Load()
		n += dst[i]
	}
	return n
}

// Quantile returns an upper bound in nanoseconds for the q-quantile (the
// top of its bucket, capped at the observed max), good to a factor of
// two. The rank is the ceiling of q×count, so q=0.99 over 10
// observations selects the 10th (truncating would select the 9th — a
// bucket below the true quantile).
func (h *Hist) Quantile(q float64) int64 {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return min(int64(1)<<uint(i), h.max.Load())
}

// quantileBucket returns the bucket the q-quantile falls in, -1 with
// nothing observed.
func (h *Hist) quantileBucket(q float64) int {
	total := h.count.Load()
	if total == 0 {
		return -1
	}
	rank := min(max(int64(math.Ceil(q*float64(total))), 1), total)
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return i
		}
	}
	return histBuckets - 1
}

// StageHist is the per-stage latency attribution: one Hist per Stage.
// It is embedded in both the client and the server
// metrics registries and rendered as the bsoap_{client,server}_stage_seconds
// Prometheus families.
type StageHist struct {
	stages [StageCount]stageDist
}

type stageDist struct {
	Hist
	lastSpan atomic.Uint64
	lastNs   atomic.Int64
}

// Observe records one duration for the stage; span, when non-zero, is
// retained as the stage's most recent exemplar (exposed on the +Inf
// bucket) and gets the sample as a KindStage event in the flight
// recorder, so every site that attributes time also puts it on the
// call's timeline (with the recorder off that is Rec's one atomic
// load). Safe for concurrent use; never allocates.
func (h *StageHist) Observe(st Stage, ns int64, span uint64) {
	if int(st) >= StageCount {
		return
	}
	if ns < 0 {
		ns = 0
	}
	d := &h.stages[st]
	d.Hist.Observe(ns)
	if span != 0 {
		d.lastSpan.Store(span)
		d.lastNs.Store(ns)
		Rec(span, KindStage, int64(st), ns, 0)
	}
}

// Exemplar returns the stage's most recent traced observation (span id
// and duration); ok is false when no traced call has touched the stage.
func (h *StageHist) Exemplar(st Stage) (span uint64, ns int64, ok bool) {
	if int(st) >= StageCount {
		return 0, 0, false
	}
	d := &h.stages[st]
	span = d.lastSpan.Load()
	return span, d.lastNs.Load(), span != 0
}

// Stage returns the stage's distribution (st must be a valid Stage).
func (h *StageHist) Stage(st Stage) *Hist { return &h.stages[st].Hist }

// StageBucketCount is the number of buckets of a Hist.
const StageBucketCount = histBuckets

// StageBucketUppers returns the bucket upper bounds in seconds
// (2^i nanoseconds for bucket i). The slice is freshly allocated; cold
// path only (exposition).
func StageBucketUppers() []float64 {
	u := make([]float64, histBuckets)
	for i := range u {
		u[i] = float64(uint64(1)<<uint(i)) / 1e9
	}
	return u
}
