// Command bsoap-inspect visualizes a template's internals: the chunk
// map and the DUT table after a scripted sequence of sends. It is the
// debugging lens for the engine's layout decisions — stuffing widths,
// closing-tag positions, shift-driven splits.
//
//	bsoap-inspect -type doubles -n 8 -width max
//	bsoap-inspect -type mios -n 6 -script "touch:0.5,grow:1.0,touch:0.25"
//
// Three subcommands instead inspect a running process over its -metrics
// endpoint (see remote.go):
//
//	bsoap-inspect trace     -url http://127.0.0.1:8123/debug/trace
//	bsoap-inspect metrics   -url http://127.0.0.1:8123/metrics
//	bsoap-inspect templates http://127.0.0.1:8123/debug/templates \
//	                        http://127.0.0.1:8124/debug/templates
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "metrics":
			runMetrics(os.Args[2:])
			return
		case "templates":
			runTemplates(os.Args[2:])
			return
		case "health":
			runHealth(os.Args[2:])
			return
		}
	}
	var (
		typ    = flag.String("type", "doubles", "doubles | mios")
		n      = flag.Int("n", 8, "array elements")
		width  = flag.String("width", "exact", "stuffing: exact | intermediate | max")
		script = flag.String("script", "touch:0.5", "comma-separated steps: touch:<frac> | grow:<frac>")
		dump   = flag.Bool("dump", false, "also print the serialized message bytes")
	)
	flag.Parse()

	var policy core.WidthPolicy
	switch *width {
	case "exact":
	case "intermediate":
		policy = core.WidthPolicy{Int: 9, Double: 18}
	case "max":
		policy = core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth}
	default:
		fatal(fmt.Errorf("unknown width policy %q", *width))
	}

	var msg *wire.Message
	var touch, grow func(frac float64)
	switch *typ {
	case "doubles":
		w := workload.NewDoubles(*n, workload.FillMin)
		msg = w.Msg
		touch = w.TouchFraction
		grow = func(f float64) { w.GrowFraction(f, workload.MaxDouble) }
	case "mios":
		w := workload.NewMIOs(*n, workload.FillMin)
		msg = w.Msg
		touch = w.TouchDoublesFraction
		grow = func(f float64) {
			w.GrowFraction(f, workload.MaxInt, workload.MaxInt, workload.MaxDouble)
		}
	default:
		fatal(fmt.Errorf("unknown workload type %q", *typ))
	}

	stub := core.NewStub(core.Config{Width: policy}, transport.NewDiscardSink())
	ci, err := stub.Call(msg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("send 0: %s\n", ci.Match)

	for i, step := range strings.Split(*script, ",") {
		step = strings.TrimSpace(step)
		if step == "" {
			continue
		}
		parts := strings.SplitN(step, ":", 2)
		frac := 1.0
		if len(parts) == 2 {
			f, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				fatal(fmt.Errorf("step %q: %w", step, err))
			}
			frac = f
		}
		switch parts[0] {
		case "touch":
			touch(frac)
		case "grow":
			grow(frac)
		default:
			fatal(fmt.Errorf("unknown step %q (touch|grow)", parts[0]))
		}
		ci, err := stub.Call(msg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("send %d (%s): %s — %d rewritten, %d tag shifts, %d shifts, %d splits\n",
			i+1, step, ci.Match, ci.ValuesRewritten, ci.TagShifts, ci.Shifts, ci.Splits)
	}

	tpl := stub.Template(msg.Operation(), msg.Signature())
	if tpl == nil {
		fatal(fmt.Errorf("no template recorded"))
	}

	tab := tpl.Table()
	entries := make(map[*chunk.Chunk][2]int) // each chunk's entry range; none: [0,0)
	for i := 0; i < tab.Len(); i++ {
		lo, hi := tab.Range(tab.At(i))
		entries[tab.Chunk(tab.At(i))] = [2]int{lo, hi}
	}
	fmt.Printf("\nchunk map (%d chunks, %d bytes total):\n", tpl.Buffer().NumChunks(), tpl.Buffer().Len())
	idx := 0
	for c := tpl.Buffer().Head(); c != nil; c = c.Next() {
		fmt.Printf("  chunk %2d: len %6d  cap %6d  slack %5d  entries [%d,%d)\n",
			idx, c.Len(), c.Cap(), c.Slack(), entries[c][0], entries[c][1])
		idx++
	}

	fmt.Printf("\nDUT table (%d entries):\n", tab.Len())
	limit := tab.Len()
	if limit > 48 {
		limit = 48
	}
	for i := 0; i < limit; i++ {
		e := tab.At(i)
		val := tab.Chunk(e).Bytes()[e.Off() : e.Off()+e.SerLen()]
		typ, _ := tab.Kind(e)
		fmt.Printf("  %4d: %-11s off %6d  serlen %3d  width %3d  pad %3d  %q\n",
			i, typ.Name, e.Off(), e.SerLen(), e.Width(), e.Width()-e.SerLen(), val)
	}
	if tab.Len() > limit {
		fmt.Printf("  … %d more entries\n", tab.Len()-limit)
	}

	if *dump {
		fmt.Printf("\nserialized message (%d bytes):\n%s\n", len(tpl.Bytes()), tpl.Bytes())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsoap-inspect:", err)
	os.Exit(1)
}
