// Command bsoap-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	bsoap-bench -fig all                 # every figure, in-process sink
//	bsoap-bench -fig 1,2,7 -reps 100 -max-size 100000
//	bsoap-bench -fig 2 -tcp 127.0.0.1:9999   # against bsoap-server -mode discard
//	bsoap-bench -fig all -csv results/       # also write CSV per figure
//
// Without -tcp, sends go to an in-process discard sink, isolating pure
// serialization cost. With -tcp, each send is a framed HTTP POST over a
// persistent connection to a discard server, matching the paper's dummy
// server methodology (the timed interval still ends at the final write).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bsoap/internal/bench"
	"bsoap/internal/transport"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure numbers (1-12) or 'all'")
		reps    = flag.Int("reps", 25, "timed repetitions per data point (paper used 100)")
		maxSize = flag.Int("max-size", 10000, "largest array size swept (paper used 100000)")
		tcp     = flag.String("tcp", "", "send over TCP to a discard server at host:port instead of in-process")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files into")
		jsonOut = flag.String("json", "", "write machine-readable results (ns/op, B/op, allocs/op per point) to this path; 'auto' selects BENCH_<date>.json")
	)
	flag.Parse()

	ids, err := parseFigs(*figs)
	if err != nil {
		fatal(err)
	}

	opts := bench.Options{Reps: *reps, MaxSize: *maxSize}
	if *tcp != "" {
		sender, err := transport.Dial(*tcp, transport.SenderOptions{})
		if err != nil {
			fatal(fmt.Errorf("connecting to discard server: %w", err))
		}
		defer sender.Close()
		opts.Sink = sender
		opts.StreamSink = sender
		fmt.Printf("# sending over TCP to %s\n", *tcp)
	} else {
		fmt.Printf("# in-process discard sink (pure serialization-side cost)\n")
	}
	fmt.Printf("# reps=%d max-size=%d\n\n", *reps, *maxSize)

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	runners := bench.Figures()
	var figures []*bench.Figure
	for _, id := range ids {
		start := time.Now()
		fig, err := runners[id](opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		figures = append(figures, fig)
		if err := fig.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("# %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, fig.ID+".csv"))
			if err != nil {
				fatal(err)
			}
			if err := fig.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
		}
		doc := struct {
			Date    string          `json:"date"`
			Reps    int             `json:"reps"`
			MaxSize int             `json:"max_size"`
			Sink    string          `json:"sink"`
			Figures []*bench.Figure `json:"figures"`
		}{
			Date:    time.Now().Format(time.RFC3339),
			Reps:    *reps,
			MaxSize: *maxSize,
			Sink:    sinkName(*tcp),
			Figures: figures,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote %s\n", path)
	}
}

// sinkName names the measurement sink for the JSON metadata.
func sinkName(tcp string) string {
	if tcp != "" {
		return "tcp " + tcp
	}
	return "in-process discard"
}

// parseFigs turns "1,2,12" or "all" into figure IDs.
func parseFigs(spec string) ([]string, error) {
	if spec == "all" || spec == "" {
		return bench.FigureIDs(), nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		id := part
		if bench.Figures()[id] == nil {
			var n int
			if _, err := fmt.Sscanf(part, "%d", &n); err != nil {
				return nil, fmt.Errorf("unknown figure %q (use 1-12, fig01-fig12, or extension IDs like extD1)", part)
			}
			id = fmt.Sprintf("fig%02d", n)
		}
		if bench.Figures()[id] == nil {
			return nil, fmt.Errorf("unknown figure %q (use 1-12, fig01-fig12, or extension IDs like extD1)", part)
		}
		out = append(out, id)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsoap-bench:", err)
	os.Exit(1)
}
