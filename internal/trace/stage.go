package trace

import (
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
	// StagePipelineQueue is the time a pipelined submit spent blocked on
	// the in-flight window (zero on the serial path).
	StagePipelineQueue
	// StageWire is wire time as seen by the client: the transport send
	// (serial) or submit-to-completion (pipelined), so it includes the
	// server's processing for serial calls.
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

// StageFromString resolves a wire name back to its Stage; ok is false
// for unknown names.
func StageFromString(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// stageBuckets is the per-stage histogram resolution: power-of-two
// nanosecond buckets, bucket i counting durations with
// 2^(i-1) < d <= 2^i ns (bucket 0 is <=1ns), covering ~1ns to ~9min.
const stageBuckets = 40

// StageHist is an always-on, allocation-free per-stage latency
// histogram: one power-of-two-bucket nanosecond histogram per Stage,
// all counters atomic. It is embedded in both the client and the server
// metrics registries and rendered as the bsoap_{client,server}_stage_seconds
// Prometheus families.
type StageHist struct {
	stages [StageCount]stageDist
}

type stageDist struct {
	buckets  [stageBuckets]atomic.Int64
	count    atomic.Int64
	sum      atomic.Int64 // nanoseconds
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
	i := bits.Len64(uint64(ns))
	if i >= stageBuckets {
		i = stageBuckets - 1
	}
	d := &h.stages[st]
	d.buckets[i].Add(1)
	d.count.Add(1)
	d.sum.Add(ns)
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

// Count returns the number of observations recorded for the stage.
func (h *StageHist) Count(st Stage) int64 {
	if int(st) >= StageCount {
		return 0
	}
	return h.stages[st].count.Load()
}

// SumSeconds returns the stage's cumulative observed time in seconds.
func (h *StageHist) SumSeconds(st Stage) float64 {
	if int(st) >= StageCount {
		return 0
	}
	return float64(h.stages[st].sum.Load()) / 1e9
}

// Buckets copies the stage's per-bucket (non-cumulative) counts into
// dst, which must hold StageBucketCount entries, and returns the
// observation count at snapshot start.
func (h *StageHist) Buckets(st Stage, dst []int64) int64 {
	if int(st) >= StageCount {
		return 0
	}
	d := &h.stages[st]
	n := d.count.Load()
	for i := 0; i < stageBuckets && i < len(dst); i++ {
		dst[i] = d.buckets[i].Load()
	}
	return n
}

// StageBucketCount is the number of histogram buckets per stage.
const StageBucketCount = stageBuckets

// StageBucketUppers returns the bucket upper bounds in seconds
// (2^i nanoseconds for bucket i). The slice is freshly allocated; cold
// path only (exposition).
func StageBucketUppers() []float64 {
	u := make([]float64, stageBuckets)
	for i := range u {
		u[i] = float64(uint64(1)<<uint(i)) / 1e9
	}
	return u
}
