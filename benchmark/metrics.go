package main

import (
	"slices"
)

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// quantileUs returns the q-quantile of sorted nanosecond samples, in µs.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the acceptance rule for this benchmark is written in.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overWindows returns the q-quantile over a pass's windows of f.
func overWindows(res *passResult, q float64, f func(windowStat) float64) float64 {
	vs := make([]float64, len(res.windows))
	for i, w := range res.windows {
		vs[i] = f(w)
	}
	slices.Sort(vs)
	return vs[int(q*float64(len(vs)-1)+0.5)]
}

// A neighbour on a shared box only ever slows a window down — for a
// second, for five, now and then for longer (a fixed CPU-bound loop on
// this sandbox runs 50 % slower during such an episode). So a pass is
// summarised by its best tenth of windows, the 90th percentile for
// throughput and the 10th for times: the speed the box held for at
// least a tenth of the pass, which stays put whether or not slow
// episodes fell into the rest. The median over windows moved about
// twice as much between runs that differed only in their seed.
const (
	fastRate = 0.9
	fastTime = 0.1
)

func callsPerSecond(res *passResult) float64 {
	return overWindows(res, fastRate, func(w windowStat) float64 { return ratio(float64(w.calls), w.seconds) })
}

// endToEnd names what a caller of the system sees.
func endToEnd(res *passResult, setup, templateBytes float64) []metric {
	calls := float64(res.client.Calls)
	return []metric{
		{"setup_s", setup, "s"},
		{"calls_per_s", callsPerSecond(res), "calls/s"},
		{"call_p50_us", overWindows(res, fastTime, func(w windowStat) float64 { return w.p50 }), "us"},
		{"call_p90_us", overWindows(res, fastTime, func(w windowStat) float64 { return w.p90 }), "us"},
		{"cpu_us_per_call", overWindows(res, fastTime, func(w windowStat) float64 {
			return ratio(float64(w.cpu.Microseconds()), float64(w.calls))
		}), "us"},
		{"wire_bytes_per_call", ratio(float64(res.client.BytesOnWire), calls), "bytes"},
		{"template_kb", templateBytes / 1024, "KB"},
	}
}

// selfTimes returns the median and the mean over calls of each span's
// self time — its duration less the child span inside it — in µs, in
// the order mutate, call, client_io, server_io, handle.
func selfTimes(calls []tracedCall) (p50, mean [5]float64) {
	col := make([][]float64, 5)
	for _, tc := range calls {
		d := func(iv interval) float64 { return float64(iv.end-iv.start) / 1e3 }
		for i, v := range [5]float64{
			d(tc.mutate),
			d(tc.call) - d(tc.clientIO),
			d(tc.clientIO) - d(tc.serverIO),
			d(tc.serverIO) - d(tc.handle),
			d(tc.handle),
		} {
			col[i] = append(col[i], v)
			mean[i] += v / float64(len(calls))
		}
	}
	for i := range col {
		p50[i] = median(col[i])
	}
	return p50, mean
}

// probed is what the staged probes say the layers inside the call span
// (client side) and the handle span (server side) cost per call, in µs,
// given how the calls of a pass were served.
func probed(res *passResult, pr *probeResult) (client, server float64) {
	n, reqs := float64(res.client.Calls), float64(res.server.Requests)
	firstTime := ratio(float64(res.client.FirstTimeSends), n)
	delta := ratio(float64(res.client.DeltaSends), n)
	fast := ratio(float64(res.server.DiffDecodes), reqs)
	client = (1-firstTime)*pr.contentMatchCall + ratio(float64(res.client.ValuesRewritten), n)*pr.rewriteLeaf +
		firstTime*pr.firstTimeCall + delta*pr.deltaEncode + pr.acquireRelease + pr.readResponse
	server = fast*pr.fastDecodeCall + (1-fast)*pr.fullDecodeCall + delta*pr.deltaParse
	return client / 1e3, server / 1e3
}

// perLayer names what the single layers did: span self times from the
// traced pass, counts from the public Stats deltas over ref — the
// untraced pass of the same run, because on two workers the tracer's
// own cost shifts how often the workers meet on a replica — the staged
// probes, and the two figures that reconcile probes with spans.
func perLayer(ref, traced *passResult, calls []tracedCall, clientKB, serverKB float64, pr *probeResult) []metric {
	self, meanSelf := selfTimes(calls)
	// The reconciliation holds the probes against the spans of the same
	// pass, mean against mean: on two workers half the calls rebind and
	// cost twenty times the median.
	clientProbed, serverProbed := probed(traced, pr)
	c, s := ref.client, ref.server
	n := float64(c.Calls)
	reqs := float64(s.Requests)

	ms := []metric{
		{"wire.mutate_us", self[0], "us"},
		{"pool.client_self_us", self[1], "us"},
		{"transport.link_self_us", self[2], "us"},
		{"transport.server_io_self_us", self[3], "us"},
		{"serverpool.handle_us", self[4], "us"},
		{"trace.overhead_share", 1 - ratio(callsPerSecond(traced), callsPerSecond(ref)), "share"},
		{"pool.call_p99_us", quantileUs(ref.lat, 0.99), "us"},

		{"core.first_time_share", ratio(float64(c.FirstTimeSends), n), "share"},
		{"core.content_match_share", ratio(float64(c.ContentMatches), n), "share"},
		{"core.structural_share", ratio(float64(c.StructuralMatches), n), "share"},
		{"core.partial_share", ratio(float64(c.PartialMatches), n), "share"},
		{"core.values_rewritten_per_call", ratio(float64(c.ValuesRewritten), n), "count"},
		{"core.bytes_serialized_per_call", ratio(float64(c.BytesSerialized), n), "bytes"},
		{"core.shifts_steals_per_call", ratio(float64(c.Shifts+c.Steals), n), "count"},
		{"pool.rebind_share", ratio(float64(c.TemplateRebinds), n), "share"},
		{"pool.stale_rebind_share", ratio(float64(c.TemplateStaleRebinds), n), "share"},
		{"pool.checkout_wait_share", ratio(float64(c.CheckoutWaits), float64(c.Checkouts)), "share"},
		{"pool.retries_per_call", ratio(float64(c.Retries), n), "count"},
		{"pool.pipeline_stall_share", ratio(float64(c.PipelineStalls), n), "share"},
		{"wire.delta_send_share", ratio(float64(c.DeltaSends), n), "share"},
		{"wire.delta_resync_share", ratio(float64(c.DeltaResyncs), n), "share"},
		{"wire.delta_frame_bytes", ratio(float64(ref.frameBytes), float64(ref.frames)), "bytes"},
		{"diffdeser.fast_path_share", ratio(float64(s.DiffDecodes), reqs), "share"},
		{"diffdeser.values_reparsed_per_call", ratio(float64(s.ValuesReparsed), reqs), "count"},
		{"replica.client_template_kb", clientKB, "KB"},
		{"replica.server_template_kb", serverKB, "KB"},
		{"replica.evictions_per_call", ratio(float64(c.TemplateEvictions+s.ReplicaEvictions+s.DDSKeyEvictions), n), "count"},
		{"process.allocs_per_call", ratio(float64(ref.mallocs), n), "count"},
		{"process.alloc_bytes_per_call", ratio(float64(ref.bytes), n), "bytes"},
	}
	ms = append(ms, pr.metrics...)
	return append(ms,
		metric{"pool.unprobed_share", 1 - ratio(clientProbed, meanSelf[1]), "share"},
		metric{"serverpool.unprobed_share", 1 - ratio(serverProbed, meanSelf[4]), "share"})
}
