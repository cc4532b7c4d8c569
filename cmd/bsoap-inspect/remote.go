// Subcommands that inspect a *running* process over its -metrics
// endpoint:
//
//	bsoap-inspect trace     -url http://127.0.0.1:8123/debug/trace
//	bsoap-inspect metrics   -url http://127.0.0.1:8123/metrics
//	bsoap-inspect templates http://127.0.0.1:8123/debug/templates ...
//
// `trace` fetches the flight-recorder ring and renders it as per-call
// timelines — one line per recorded event, grouped by span, with the
// binary A/B/C arguments decoded back into the engine's vocabulary
// ("field 7 grew 12→14", "stole 2 B pad from field 8"). `metrics`
// fetches a Prometheus scrape and validates it against the text
// exposition format, exiting nonzero on malformed output; for a server's
// page it adds why requests took the full parse, by reason. `templates`
// fetches one or more /debug/templates dumps — client pool and server
// runtime serve the same uniform document — and renders each registry's
// entries and budget accounting.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
)

// runTrace implements `bsoap-inspect trace`.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		url       = fs.String("url", "http://127.0.0.1:8123/debug/trace", "flight-recorder endpoint")
		clear     = fs.Bool("clear", false, "clear the ring after dumping")
		spans     = fs.Int("spans", 0, "show only the last N call spans (0 = all)")
		follow    = fs.Bool("follow", false, "poll the ring incrementally (?since= cursor) and stream new events")
		interval  = fs.Duration("interval", time.Second, "poll interval with -follow")
		correlate = fs.Bool("correlate", false, "merge a client and a server ring by span: trace -correlate clientURL serverURL")
	)
	_ = fs.Parse(args)

	if *correlate {
		urls := fs.Args()
		if len(urls) != 2 {
			fatal(fmt.Errorf("trace -correlate needs exactly two endpoints: clientURL serverURL"))
		}
		os.Exit(runCorrelate(os.Stdout, urls[0], urls[1]))
	}
	if *follow {
		followTrace(*url, *interval)
		return
	}

	u := *url
	if *clear {
		u += "?clear=1"
	}
	body, err := fetch(u)
	if err != nil {
		fatal(err)
	}
	var d trace.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		fatal(fmt.Errorf("decoding %s: %w", *url, err))
	}
	printTimelines(os.Stdout, &d, *spans)
}

// followTrace polls the endpoint with the ?since= cursor, printing only
// events recorded after the previous poll, until interrupted.
func followTrace(url string, interval time.Duration) {
	sep := "?"
	if strings.ContainsRune(url, '?') {
		sep = "&"
	}
	var cursor uint64
	for {
		body, err := fetch(fmt.Sprintf("%s%ssince=%d", url, sep, cursor))
		if err != nil {
			fatal(err)
		}
		var d trace.Dump
		if err := json.Unmarshal(body, &d); err != nil {
			fatal(fmt.Errorf("decoding %s: %w", url, err))
		}
		if cursor > 0 && d.Recorded < cursor {
			// The ring was cleared under us: restart from its beginning.
			fmt.Println("-- ring cleared, cursor reset --")
			cursor = 0
			continue
		}
		for _, ev := range d.Events {
			fmt.Printf("%10d  span %-6d %s\n", ev.Seq, ev.Span, renderEvent(ev, d.Ops))
		}
		cursor = d.Next
		time.Sleep(interval)
	}
}

// printTimelines groups a dump's events by span and renders each call's
// decision trail in recording order.
func printTimelines(w io.Writer, d *trace.Dump, limit int) {
	fmt.Fprintf(w, "trace: %d events recorded, %d retained, %d overwritten\n",
		d.Recorded, len(d.Events), d.Dropped)

	// Span 0 carries events not bound to any call (fresh dials).
	bySpan := make(map[uint64][]trace.EventJSON)
	var order []uint64
	for _, ev := range d.Events {
		if _, seen := bySpan[ev.Span]; !seen {
			order = append(order, ev.Span)
		}
		bySpan[ev.Span] = append(bySpan[ev.Span], ev)
	}
	sort.Slice(order, func(a, b int) bool {
		return bySpan[order[a]][0].Seq < bySpan[order[b]][0].Seq
	})
	if limit > 0 {
		calls := 0
		for _, s := range order {
			if s != 0 {
				calls++
			}
		}
		for calls > limit && len(order) > 0 {
			if order[0] != 0 {
				calls--
			}
			delete(bySpan, order[0])
			order = order[1:]
		}
	}

	for _, span := range order {
		evs := bySpan[span]
		if span == 0 {
			fmt.Fprintf(w, "\nunbound events (no call span):\n")
		} else {
			fmt.Fprintf(w, "\ncall %d:\n", span)
		}
		t0 := evs[0].Time
		for _, ev := range evs {
			dt := time.Duration(ev.Time - t0)
			fmt.Fprintf(w, "  %+10v  %s\n", dt.Round(time.Microsecond), renderEvent(ev, d.Ops))
		}
	}
}

// shortMatch maps core.MatchKind values to the paper's abbreviations.
func shortMatch(a int64) string {
	switch core.MatchKind(a) {
	case core.FirstTime:
		return "FTS"
	case core.ContentMatch:
		return "MCM"
	case core.StructuralMatch:
		return "PSM"
	case core.PartialMatch:
		return "PaSM"
	case core.FullSerialization:
		return "full serialization"
	}
	return "?"
}

// renderEvent decodes one event's A/B/C arguments per its kind.
func renderEvent(ev trace.EventJSON, ops map[int64]string) string {
	op := func(id int64) string {
		if name, ok := ops[id]; ok {
			return name
		}
		return fmt.Sprintf("op#%d", id)
	}
	k, _ := trace.KindFromString(ev.Kind)
	switch k {
	case trace.KindCallStart:
		return fmt.Sprintf("start %s, %d dirty leaves", op(ev.A), ev.B)
	case trace.KindMatch:
		s := fmt.Sprintf("classified %s (%s)", shortMatch(ev.A), core.MatchKind(ev.A))
		if ev.B == 1 {
			s += " — degraded: suspect template discarded"
		}
		return s
	case trace.KindRewrite:
		if ev.B == ev.C {
			return fmt.Sprintf("field %d rewritten in place (%d B)", ev.A, ev.B)
		}
		return fmt.Sprintf("field %d grew %d→%d", ev.A, ev.B, ev.C)
	case trace.KindTagShift:
		return fmt.Sprintf("field %d closing tag shifted (serlen %d of width %d)", ev.A, ev.B, ev.C)
	case trace.KindShift:
		return fmt.Sprintf("shifted %d B within chunk %d (field %d)", ev.B, ev.C, ev.A)
	case trace.KindSteal:
		return fmt.Sprintf("stole %d B pad from field %d (for field %d)", ev.B, ev.C, ev.A)
	case trace.KindChunkGrow:
		return fmt.Sprintf("chunk %d reallocated (len %d, needed %d more)", ev.C, ev.A, ev.B)
	case trace.KindChunkSplit:
		return fmt.Sprintf("chunk %d split at offset %d (len %d)", ev.C, ev.B, ev.A)
	case trace.KindTemplateBuild:
		return fmt.Sprintf("template built for %s (%d B)", op(ev.A), ev.B)
	case trace.KindTemplateSuspect:
		return fmt.Sprintf("template %s marked suspect (send failed mid-template)", op(ev.A))
	case trace.KindTemplateRebind:
		return fmt.Sprintf("template %s rebound to a new message", op(ev.A))
	case trace.KindStaleRebind:
		return fmt.Sprintf("forced full rewrite of %s (returned to a stale replica)", op(ev.A))
	case trace.KindPoolCheckout:
		if ev.A == 1 {
			return "connection checked out (waited for a free slot)"
		}
		return "connection checked out"
	case trace.KindPoolRetry:
		return fmt.Sprintf("send retry #%d after connection repair", ev.A)
	case trace.KindDial, trace.KindRedial:
		verb := "dial"
		if k == trace.KindRedial {
			verb = "redial"
		}
		if ev.A == 1 {
			return fmt.Sprintf("%s ok in %v", verb, time.Duration(ev.B).Round(time.Microsecond))
		}
		return fmt.Sprintf("%s FAILED after %v", verb, time.Duration(ev.B).Round(time.Microsecond))
	case trace.KindDeadline:
		if ev.A == 1 {
			return "read deadline hit"
		}
		return "write deadline hit"
	case trace.KindCallEnd:
		return fmt.Sprintf("done: %s, %d B on wire (%d B serialized)", shortMatch(ev.A), ev.B, ev.C)
	case trace.KindCallErr:
		if ev.A < 0 {
			return "FAILED before reaching the engine (no healthy connection)"
		}
		return fmt.Sprintf("FAILED after %s, %d B attempted", shortMatch(ev.A), ev.B)
	case trace.KindOverlayPortion:
		return fmt.Sprintf("overlay portion streamed: items [%d,%d) — %d B", ev.A, ev.A+ev.B, ev.C)
	case trace.KindAsyncSubmit:
		return fmt.Sprintf("async submit %s (%d in flight)", op(ev.A), ev.B)
	case trace.KindAsyncComplete:
		if ev.A == 1 {
			return fmt.Sprintf("async complete in %v", time.Duration(ev.B).Round(time.Microsecond))
		}
		return fmt.Sprintf("async FAILED after %v", time.Duration(ev.B).Round(time.Microsecond))
	case trace.KindReplicaEvict:
		reason := "lru"
		if ev.B == 1 {
			reason = "budget"
		}
		return fmt.Sprintf("replica entry %s evicted (%s, %d B released)", op(ev.A), reason, ev.C)
	case trace.KindServerSpan:
		return fmt.Sprintf("server adopted client span (sub-span %d, conn %d)", ev.A, ev.B)
	case trace.KindStage:
		return fmt.Sprintf("stage %s: %v", trace.Stage(ev.A), time.Duration(ev.B).Round(time.Microsecond))
	}
	return fmt.Sprintf("%s a=%d b=%d c=%d", ev.Kind, ev.A, ev.B, ev.C)
}

// runTemplates implements `bsoap-inspect templates`: it fetches one or
// more /debug/templates endpoints — the client pool's and the server
// runtime's serve the same uniform document — and renders each registry
// as a table of (op, signature, affinity, replicas, bytes, in-flight,
// last use), with the registry's budget accounting in the header.
func runTemplates(args []string) {
	fs := flag.NewFlagSet("templates", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8123/debug/templates", "template-dump endpoint (positional URLs override)")
	_ = fs.Parse(args)
	urls := fs.Args()
	if len(urls) == 0 {
		urls = []string{*url}
	}
	for i, u := range urls {
		if i > 0 {
			fmt.Println()
		}
		body, err := fetch(u)
		if err != nil {
			fatal(err)
		}
		var d replica.Dump
		if err := json.Unmarshal(body, &d); err != nil {
			fatal(fmt.Errorf("decoding %s: %w", u, err))
		}
		printTemplates(os.Stdout, u, &d)
	}
}

// printTemplates renders one registry dump.
func printTemplates(w io.Writer, url string, d *replica.Dump) {
	budget := "unbudgeted"
	if d.BudgetBytes > 0 {
		budget = fmt.Sprintf("budget %.1f KB", float64(d.BudgetBytes)/1e3)
	}
	fmt.Fprintf(w, "%s side (%s): %d entries, %.1f KB resident (high water %.1f KB, %s), evictions %d lru / %d budget\n",
		d.Side, url, d.Entries, float64(d.Bytes)/1e3, float64(d.HighWaterBytes)/1e3, budget,
		d.EvictionsLRU, d.EvictionsBudget)
	if len(d.Templates) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-16s %-18s %-22s %8s %10s %9s %10s\n",
		"OP", "SIGNATURE", "AFFINITY", "REPLICAS", "BYTES", "IN-FLIGHT", "IDLE")
	for _, t := range d.Templates {
		op, sig := t.Op, t.Signature
		if op == "" {
			op = "-"
		}
		if sig == "" {
			sig = "-"
		}
		if len(sig) > 18 {
			sig = sig[:15] + "..."
		}
		fmt.Fprintf(w, "  %-16s %-18s %-22s %8d %10d %9d %9dms\n",
			op, sig, t.Affinity, t.Replicas, t.Bytes, t.InFlight, t.IdleMS)
	}
}

// runMetrics implements `bsoap-inspect metrics`.
func runMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	var (
		url  = fs.String("url", "http://127.0.0.1:8123/metrics", "Prometheus scrape endpoint")
		dump = fs.Bool("dump", false, "also print the raw exposition text")
		get  = fs.String("get", "", "print one sample's value and exit (bare name or name{label=\"value\"})")
	)
	_ = fs.Parse(args)

	body, err := fetch(*url)
	if err != nil {
		fatal(err)
	}
	if *get != "" {
		vals, err := promtext.ReadValues(bytes.NewReader(body))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *url, err))
		}
		v, ok := vals[*get]
		if !ok {
			fatal(fmt.Errorf("%s: no sample %q", *url, *get))
		}
		fmt.Printf("%g\n", v)
		return
	}
	if *dump {
		os.Stdout.Write(body)
	}
	st, err := promtext.Validate(bytes.NewReader(body))
	if err != nil {
		fatal(fmt.Errorf("%s: invalid Prometheus exposition: %w", *url, err))
	}
	names := make([]string, 0, len(st.Names))
	for n := range st.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("valid Prometheus exposition: %d families, %d samples\n", st.Families, st.Samples)
	for _, n := range names {
		fmt.Printf("  %s\n", n)
	}
	if vals, err := promtext.ReadValues(bytes.NewReader(body)); err == nil {
		printFullParseReasons(os.Stdout, vals)
	}
}

// printFullParseReasons shows, for a server's page, why its requests went
// cold: the labelled split of bsoap_server_dds_full_parse_total.
func printFullParseReasons(w io.Writer, vals map[string]float64) {
	total, ok := vals["bsoap_server_dds_full_parse_total"]
	if !ok {
		return // not a server's page
	}
	fast := vals["bsoap_server_dds_fast_path_total"]
	fmt.Fprintf(w, "server decodes: %.0f differential, %.0f full parses", fast, total)
	sep := " — "
	for r := diffdeser.ReasonNone + 1; r < diffdeser.NumReasons && total > 0; r++ {
		n := vals[`bsoap_server_dds_full_parse_reason_total{reason="`+r.String()+`"}`]
		fmt.Fprintf(w, "%s%s %.1f%% (%.0f)", sep, r, 100*n/total, n)
		sep = ", "
	}
	fmt.Fprintln(w)
}

func fetch(url string) ([]byte, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
