// Command bsoap-loadgen drives the concurrent client runtime: N worker
// goroutines × M operations share one bsoap.Pool against a bsoap-server,
// then a throughput + match-class report shows how much serialization
// differential templates saved under load.
//
//	# terminal 1
//	go run ./cmd/bsoap-server -mode bench
//	# terminal 2
//	go run ./cmd/bsoap-loadgen -workers 8
//
// Every call reads its response, so the server must answer (any SOAP
// mode, or -mode record; the silent -mode discard is for bsoap-bench).
// Every socket read and write is bounded by 10s, so a server that never
// answers fails the run instead of hanging it. Use -metrics :8123 to
// expose the live registry while the run is in flight: JSON at http://localhost:8123/, Prometheus text exposition at
// /metrics, the flight-recorder ring at /debug/trace (pair with -trace)
// and the live template store at /debug/templates.
//
// -chaos 0.05 runs the same load through a fault injector that resets
// 5% of socket operations (plus partial writes, mid-stream closes and
// dial failures at a quarter of that rate), reporting how the hardened
// transport degraded; -max-err sets the failed-call percentage above
// which the run exits nonzero.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // -pprof flag: live heap/alloc profiles
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bsoap"
	"bsoap/internal/faultwire"
	"bsoap/internal/health"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9999", "bsoap-server address")
		workers   = flag.Int("workers", 8, "concurrent worker goroutines")
		ops       = flag.Int("ops", 3, "distinct operations to spread calls over")
		n         = flag.Int("n", 1000, "array elements per message")
		duration  = flag.Duration("duration", 5*time.Second, "run length")
		calls     = flag.Int64("calls", 0, "stop after this many calls instead of -duration")
		hold      = flag.Duration("hold", 0, "keep serving -metrics debug endpoints this long after the run (so trace rings can be scraped/correlated post-run)")
		conns     = flag.Int("conns", 0, "pooled connections (default = workers, max 16)")
		replicas  = flag.Int("replicas", 0, "template replicas per operation structure (default = conns: one template per message that can be in flight)")
		maxTmplB  = flag.Int64("max-template-bytes", 0, "template memory budget in bytes (0 = unbudgeted); LRU entries are evicted to stay under it")
		mix       = flag.String("mix", "60/30/10", "percent of iterations that are untouched/touched/grown")
		metrics   = flag.String("metrics", "", "serve live metrics on this address (e.g. :8123): JSON at /, Prometheus at /metrics, /debug/trace, /debug/trace/slow, /debug/health, /debug/templates")
		traceOn   = flag.Bool("trace", false, "enable the flight recorder (dump via -metrics /debug/trace or report a summary on exit)")
		traceSamp = flag.Uint64("trace-sample", 1, "record every Nth rewrite/tag-shift event (1 = all)")
		slowThr   = flag.Duration("slow-threshold", 0, "capture full event sets of calls slower end-to-end than this (0 = off)")
		slowQuant = flag.Float64("slow-quantile", 0, "capture calls slower than this rolling latency quantile, e.g. 0.99 (0 = off; overrides -slow-threshold)")
		pprofSrv  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) — verify the send path's allocation profile under load")
		pipeline  = flag.Int("pipeline", 0, "pipeline depth: keep up to N async calls in flight per worker (workers drive max(-ops, N) messages each so the window can fill)")
		maxErr    = flag.Float64("max-err", 0, "max tolerated error rate in percent before exiting nonzero")
		chaos     = flag.Float64("chaos", 0, "inject faults: connection-reset probability per socket op (plus partial writes, mid-stream closes and dial failures at a quarter of it)")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault injector seed")
		srvMet    = flag.String("server-metrics", "", "scrape this server /metrics URL at end of run and report its differential-decode counters")
		minFast   = flag.Float64("min-server-fast", 0, "with -server-metrics: min server DDS fast-path percent before exiting nonzero")
		delta     = flag.Bool("delta", false, "negotiate differential transmission: send compact patch frames instead of full bodies once the server acknowledges holding the previous one")
		minSaved  = flag.Float64("min-delta-saved", 0, "with -delta: min percent of wire bytes saved versus represented bytes before exiting nonzero")
		bandwidth = flag.Int64("bandwidth", 0, "throttle aggregate socket throughput to this many bytes/sec (shared token bucket modelling a constrained link)")
	)
	flag.Parse()

	pcts, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsoap-loadgen:", err)
		os.Exit(2)
	}
	if *conns <= 0 {
		*conns = min(*workers, 16)
	}
	if *replicas <= 0 {
		// Fewer replicas than same-shape messages in flight leaves the
		// surplus nothing to stay bound to: every such call takes over a
		// template and rewrites it in full.
		*replicas = *conns
	}

	popts := bsoap.PoolOptions{
		Addr:             *addr,
		Size:             *conns,
		Replicas:         *replicas,
		MaxTemplateBytes: *maxTmplB,
		PipelineDepth:    *pipeline,
		Config:           bsoap.Config{EnableStealing: true, Width: bsoap.WidthPolicy{Double: 18, Int: 9}},
	}
	popts.Delta = *delta
	var inj *faultwire.Injector
	if *chaos > 0 {
		inj = faultwire.New(faultwire.Options{
			Seed: *chaosSeed,
			Probs: faultwire.Probabilities{
				Reset:          *chaos,
				PartialWrite:   *chaos / 4,
				MidStreamClose: *chaos / 4,
				DialError:      *chaos / 4,
			},
		})
		popts.Sender.Dialer = inj.Dial(nil)
	}
	if *bandwidth > 0 {
		popts.Sender.Dialer = faultwire.Bandwidth(*bandwidth).Dial(popts.Sender.Dialer)
	}
	pool, err := bsoap.NewPool(popts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsoap-loadgen:", err)
		os.Exit(1)
	}
	defer pool.Close()
	if inj != nil {
		pool.Metrics().SetFaultSource(inj.Faults)
	}

	if *traceOn {
		trace.Enable()
		if *traceSamp > 1 {
			// Rewrites and tag shifts are the per-leaf kinds: a single
			// 1000-element PSM send is 1000 of each at rate 1.
			trace.Default.SetSampling(trace.KindRewrite, *traceSamp, 0)
			trace.Default.SetSampling(trace.KindTagShift, *traceSamp, 0)
		}
	}
	if *slowThr > 0 {
		trace.SetSlowThreshold(*slowThr)
	}
	if *slowQuant > 0 {
		trace.SetSlowQuantile(*slowQuant)
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/", pool.Metrics())
		mux.Handle("/metrics", promtext.Handler(pool.Metrics().WritePrometheus))
		mux.Handle("/debug/trace", trace.Handler())
		mux.Handle("/debug/trace/slow", trace.SlowHandler())
		mux.Handle("/debug/health", health.NewProbe("bsoap-loadgen").Handler())
		mux.Handle("/debug/templates", replica.DumpHandler(pool.DebugTemplates))
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bsoap-loadgen: metrics endpoint:", err)
			}
		}()
		fmt.Printf("bsoap-loadgen: metrics on http://%s/ (JSON), /metrics (Prometheus), /debug/trace, /debug/trace/slow, /debug/health, /debug/templates\n", *metrics)
	}
	if *pprofSrv != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bsoap-loadgen: pprof endpoint:", err)
			}
		}()
		fmt.Printf("bsoap-loadgen: pprof on http://%s/debug/pprof/\n", *pprofSrv)
	}

	// Probe the target before spawning the fleet so a missing server is
	// one clear error, not -workers × -retries of them.
	probe := workload.NewDoubles(1, workload.FillMin)
	if _, err := pool.Call(probe.Msg); err != nil {
		if inj == nil {
			fmt.Fprintf(os.Stderr, "bsoap-loadgen: cannot reach %s: %v\n(start one with: go run ./cmd/bsoap-server -mode bench)\n", *addr, err)
			os.Exit(1)
		}
		// Under chaos the probe itself may eat an injected fault; the
		// run's error-rate accounting decides the exit code instead.
		fmt.Fprintf(os.Stderr, "bsoap-loadgen: probe failed (continuing under -chaos): %v\n", err)
	}

	var (
		stop      atomic.Bool
		done      atomic.Int64 // counts calls when -calls bounds the run
		errorsN   atomic.Int64
		submitted atomic.Int64 // -pipeline: futures handed out ...
		resolved  atomic.Int64 // ... and futures that came back
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(pool, w, *ops, *n, *pipeline, pcts, &stop, &done, &errorsN, &submitted, &resolved, *calls)
		}(w)
	}
	if *calls == 0 {
		time.Sleep(*duration)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(os.Stdout, pool, inj, *workers, *ops, *replicas, *addr, elapsed)
	if *pipeline > 0 {
		// Every future handed out must have come back: a submitted call
		// that neither resolved nor errored is a bug in the async path,
		// never an acceptable cost of chaos or drain.
		if s, r := submitted.Load(), resolved.Load(); s != r {
			fmt.Fprintf(os.Stderr, "bsoap-loadgen: %d futures lost (%d submitted, %d resolved)\n", s-r, s, r)
			os.Exit(1)
		}
	}
	if *traceOn {
		d := trace.Default.Snapshot()
		fmt.Printf("  trace: %d events recorded, %d retained in the ring (%d overwritten)\n",
			d.Recorded, len(d.Events), d.Dropped)
	}

	if *srvMet != "" {
		if err := checkServerMetrics(*srvMet, *minFast); err != nil {
			fmt.Fprintln(os.Stderr, "bsoap-loadgen:", err)
			os.Exit(1)
		}
	}

	st := pool.Stats()
	if *minSaved > 0 {
		if pct := deltaSavedPct(st); pct < *minSaved {
			fmt.Fprintf(os.Stderr, "bsoap-loadgen: delta saved %.1f%% of wire bytes, below -min-delta-saved %.1f%%\n", pct, *minSaved)
			os.Exit(1)
		}
	}
	errRate := 0.0
	if st.Calls > 0 {
		errRate = 100 * float64(errorsN.Load()) / float64(st.Calls)
	}
	if errRate > *maxErr {
		fmt.Fprintf(os.Stderr, "bsoap-loadgen: error rate %.2f%% exceeds -max-err %.2f%% (%d of %d calls failed)\n",
			errRate, *maxErr, errorsN.Load(), st.Calls)
		os.Exit(1)
	}

	if *hold > 0 && *metrics != "" {
		fmt.Printf("bsoap-loadgen: holding debug endpoints on %s for %v\n", *metrics, *hold)
		time.Sleep(*hold)
	}
}

// runWorker drives one goroutine's share of the load. Each worker owns
// its messages (wire messages are single-goroutine); all template state
// is shared through the pool. With pipeline > 0 the worker submits
// through CallAsync, keeping a window of futures in flight — one per
// message at most, since a message must not be mutated or resubmitted
// until its previous future resolves.
func runWorker(pool *bsoap.Pool, id, ops, n, pipeline int, pcts [3]int, stop *atomic.Bool, done, errorsN, submitted, resolved *atomic.Int64, maxCalls int64) {
	type target struct {
		msg   *bsoap.Message
		touch func()
		grow  func()
	}
	if pipeline > ops {
		// One outstanding future per message: the window can only fill if
		// the worker has at least `pipeline` distinct messages to rotate.
		ops = pipeline
	}
	targets := make([]target, 0, ops)
	for j := 0; j < ops; j++ {
		// Same j on every worker → same operation + structure → shared
		// template entry. j ≥ 3 varies the array length, which is a new
		// structural signature and therefore a distinct template.
		size := n + 16*(j/3)
		switch j % 3 {
		case 0:
			d := workload.NewDoubles(size, workload.FillIntermediate)
			targets = append(targets, target{d.Msg,
				func() { d.TouchFraction(0.1) },
				func() { d.GrowFraction(0.02, workload.MaxDouble) }})
		case 1:
			t := workload.NewInts(size, workload.FillIntermediate)
			targets = append(targets, target{t.Msg,
				func() { t.TouchFraction(0.1) },
				func() { t.TouchFraction(0.3) }})
		case 2:
			m := workload.NewMIOs(size/2, workload.FillIntermediate)
			targets = append(targets, target{m.Msg,
				func() { m.TouchDoublesFraction(0.1) },
				func() { m.GrowFraction(0.02, workload.MaxInt, workload.MaxInt, workload.MaxDouble) }})
		}
	}

	rng := rand.New(rand.NewSource(int64(id) + 1))
	countErr := func(err error) {
		// Keep driving load: failed calls are counted and judged
		// against -max-err at the end, not allowed to silently shrink
		// the fleet one worker at a time.
		if errorsN.Add(1) == 1 {
			fmt.Fprintln(os.Stderr, "bsoap-loadgen: first failed call:", err)
		}
	}
	mutate := func(t target) {
		switch p := rng.Intn(100); {
		case p < pcts[0]:
			// untouched: content match when replica affinity holds
		case p < pcts[0]+pcts[1]:
			t.touch()
		default:
			t.grow()
		}
	}

	if pipeline > 0 {
		futs := make([]*bsoap.Future, len(targets))
		settle := func(idx int) {
			if futs[idx] == nil {
				return
			}
			if _, err := futs[idx].Wait(); err != nil {
				countErr(err)
			}
			resolved.Add(1)
			futs[idx] = nil
		}
		for i := 0; !stop.Load(); i++ {
			if maxCalls > 0 && done.Add(1) > maxCalls {
				break
			}
			idx := i % len(targets)
			t := targets[idx]
			settle(idx) // the message's previous future, if any, resolves first
			mutate(t)
			f, err := pool.CallAsync(t.msg)
			if err != nil {
				countErr(err)
				continue
			}
			submitted.Add(1)
			futs[idx] = f
		}
		for idx := range futs {
			settle(idx)
		}
		return
	}

	for i := 0; !stop.Load(); i++ {
		if maxCalls > 0 && done.Add(1) > maxCalls {
			return
		}
		t := targets[i%len(targets)]
		mutate(t)
		if _, err := pool.Call(t.msg); err != nil {
			countErr(err)
		}
	}
}

// checkServerMetrics scrapes the server's Prometheus page, prints its
// differential-decode summary, and errors when the fast-path rate falls
// below minFast percent.
func checkServerMetrics(url string, minFast float64) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	vals, err := promtext.ReadValues(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	fast := vals["bsoap_server_dds_fast_path_total"]
	full := vals["bsoap_server_dds_full_parse_total"]
	rejected := vals["bsoap_server_rejected_conns_total"] + vals["bsoap_server_rejected_requests_total"]
	rate := 0.0
	if fast+full > 0 {
		rate = 100 * fast / (fast + full)
	}
	fmt.Printf("  server: %.0f requests · dds fast-path %.1f%% (%.0f fast / %.0f full) · %.0f rejected · %.0f replica evictions\n",
		vals["bsoap_server_requests_total"], rate, fast, full, rejected,
		vals["bsoap_server_replica_evictions_total"])
	if applied := vals["bsoap_server_delta_applied_total"]; applied > 0 || vals["bsoap_server_delta_resyncs_total"] > 0 {
		fmt.Printf("  server delta: %.0f patches applied, %.0f syncs, %.0f resyncs — %.1f MB of frames reconstructed %.1f MB of bodies\n",
			applied, vals["bsoap_server_delta_syncs_total"], vals["bsoap_server_delta_resyncs_total"],
			vals["bsoap_server_delta_wire_bytes_total"]/1e6, vals["bsoap_server_delta_represented_bytes_total"]/1e6)
	}
	if minFast > 0 {
		if fast+full == 0 {
			return fmt.Errorf("server reported no decodes; cannot judge -min-server-fast %.1f", minFast)
		}
		if rate < minFast {
			return fmt.Errorf("server dds fast-path %.1f%% below -min-server-fast %.1f%%", rate, minFast)
		}
	}
	return nil
}

// report prints the throughput + match-class summary.
func report(w *os.File, pool *bsoap.Pool, inj *faultwire.Injector, workers, ops, replicas int, addr string, elapsed time.Duration) {
	st := pool.Stats()
	secs := elapsed.Seconds()
	pct := func(n int64) float64 {
		if st.Calls == 0 {
			return 0
		}
		return 100 * float64(n) / float64(st.Calls)
	}
	fmt.Fprintf(w, "bsoap-loadgen: %d workers × %d ops, %d replicas, against %s for %.1fs\n", workers, ops, replicas, addr, secs)
	fmt.Fprintf(w, "  calls        %10d   (%.0f calls/s, %.1f MB/s on wire)\n",
		st.Calls, float64(st.Calls)/secs, float64(st.BytesOnWire)/1e6/secs)
	fmt.Fprintf(w, "  match kinds: first-time %d (%.2f%%) · content %d (%.1f%%) · structural %d (%.1f%%) · partial %d (%.1f%%) · errors %d\n",
		st.FirstTimeSends, pct(st.FirstTimeSends),
		st.ContentMatches, pct(st.ContentMatches),
		st.StructuralMatches, pct(st.StructuralMatches),
		st.PartialMatches, pct(st.PartialMatches), st.Errors)
	saved := 0.0
	if st.BytesRepresented > 0 {
		saved = 100 * float64(st.BytesSaved) / float64(st.BytesRepresented)
	}
	fmt.Fprintf(w, "  bytes: %.1f MB on wire, %.1f MB serialized — %.1f%% saved by diffing\n",
		float64(st.BytesOnWire)/1e6, float64(st.BytesSerialized)/1e6, saved)
	if st.DeltaSends > 0 || st.DeltaResyncs > 0 {
		fmt.Fprintf(w, "  delta: %d patch sends, %d resyncs — %.1f MB on wire for %.1f MB represented (%.1f%% wire bytes saved)\n",
			st.DeltaSends, st.DeltaResyncs,
			float64(st.BytesOnWire)/1e6, float64(st.BytesRepresented)/1e6, deltaSavedPct(st))
	}
	fmt.Fprintf(w, "  repairs: %d values rewritten, %d tag shifts, %d shifts, %d steals, %d rebinds\n",
		st.ValuesRewritten, st.TagShifts, st.Shifts, st.Steals, st.TemplateRebinds)
	fmt.Fprintf(w, "  pool: %d checkouts (%d waited), %d dials, %d redials, %d dial failures, %d retries\n",
		st.Checkouts, st.CheckoutWaits, st.Dials, st.Redials, st.DialFailures, st.Retries)
	fmt.Fprintf(w, "  pipeline: depth %d · %d requests written · %d submit stalls\n",
		st.PipelineDepth, st.AsyncCalls, st.PipelineStalls)
	if inj != nil {
		byKind := inj.FaultsByKind()
		parts := make([]string, 0, len(byKind))
		for _, k := range []string{"reset", "partial-write", "mid-stream-close", "dial-error", "read-delay", "write-delay"} {
			if n := byKind[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", k, n))
			}
		}
		detail := strings.Join(parts, " · ")
		if detail == "" {
			detail = "none"
		}
		fmt.Fprintf(w, "  chaos: %d faults injected (%s)\n", st.FaultsInjected, detail)
		fmt.Fprintf(w, "         %d degraded first-time sends, %d calls over retry budget\n",
			st.DegradedFTS, st.RetryBudgetExhausted)
	}
	fmt.Fprintf(w, "  latency: p50 %v · p90 %v · p99 %v · max %v\n",
		st.LatencyP50, st.LatencyP90, st.LatencyP99, st.LatencyMax)
	fmt.Fprintf(w, "  templates: %d resident across %d structures; %.1f%% of calls served warm\n",
		pool.TemplateCount(), pool.Entries(), pct(st.WarmCalls()))
	if st.TemplateBudgetEvictions > 0 || st.TemplateBytesHighWater > 0 {
		fmt.Fprintf(w, "  template memory: %.1f KB resident (high water %.1f KB) · %d budget evictions, %d total\n",
			float64(st.TemplateBytes)/1e3, float64(st.TemplateBytesHighWater)/1e3,
			st.TemplateBudgetEvictions, st.TemplateEvictions)
	}
}

// deltaSavedPct computes the wire-savings percentage differential
// transmission delivered: bytes kept off the wire relative to the bytes
// the calls represented.
func deltaSavedPct(st bsoap.PoolStats) float64 {
	if st.BytesRepresented == 0 {
		return 0
	}
	return 100 * float64(st.DeltaBytesSaved) / float64(st.BytesRepresented)
}

// parseMix parses "a/b/c" percentages summing to 100.
func parseMix(s string) ([3]int, error) {
	var p [3]int
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return p, fmt.Errorf("-mix wants untouched/touched/grown, e.g. 60/30/10")
	}
	sum := 0
	for i, part := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p[i]); err != nil || p[i] < 0 {
			return p, fmt.Errorf("-mix %q: bad percentage %q", s, part)
		}
		sum += p[i]
	}
	if sum != 100 {
		return p, fmt.Errorf("-mix %q: percentages sum to %d, want 100", s, sum)
	}
	return p, nil
}
