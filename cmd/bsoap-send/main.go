// Command bsoap-send drives one client engine against a workload and
// prints per-send match classes and timings — a quick way to feel the
// differential serialization effect.
//
//	bsoap-send -engine bsoap -type doubles -n 10000 -count 10 -dirty 0.25
//	bsoap-send -engine gsoap -type mios -n 10000 -count 10
//	bsoap-send -addr 127.0.0.1:9999 ...       # over TCP instead of in-process
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bsoap/internal/baseline"
	"bsoap/internal/core"
	"bsoap/internal/fastconv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

func main() {
	var (
		engine = flag.String("engine", "bsoap", "bsoap | bsoap-full | gsoap | xsoap")
		typ    = flag.String("type", "doubles", "doubles | ints | mios")
		n      = flag.Int("n", 10000, "array elements")
		count  = flag.Int("count", 10, "number of sends")
		dirty  = flag.Float64("dirty", 0.25, "fraction of values updated between sends")
		width  = flag.String("width", "exact", "stuffing: exact | intermediate | max")
		addr   = flag.String("addr", "", "send to host:port (default: in-process discard)")
		era    = flag.Bool("era2004", false, "emulate 2004-era conversion costs (exact big-integer dtoa)")
	)
	flag.Parse()

	var conv fastconv.Converter
	if *era {
		conv = fastconv.Dragon
		fmt.Println("# 2004-era conversion costs emulated (dragon dtoa)")
	}

	var sink core.Sink
	if *addr != "" {
		sender, err := transport.Dial(*addr, transport.SenderOptions{Version: transport.HTTP11})
		if err != nil {
			fatal(err)
		}
		defer sender.Close()
		sink = sender
	} else {
		sink = transport.NewDiscardSink()
	}

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
	var touch func(frac float64)
	switch *typ {
	case "doubles":
		d := workload.NewDoubles(*n, workload.FillIntermediate)
		msg, touch = d.Msg, d.TouchFraction
	case "ints":
		d := workload.NewInts(*n, workload.FillIntermediate)
		msg, touch = d.Msg, d.TouchFraction
	case "mios":
		d := workload.NewMIOs(*n, workload.FillIntermediate)
		msg, touch = d.Msg, d.TouchDoublesFraction
	default:
		fatal(fmt.Errorf("unknown workload type %q", *typ))
	}

	cfg := core.Config{Width: policy}
	switch *engine {
	case "bsoap", "bsoap-full":
		cfg.DisableDiff = *engine == "bsoap-full"
		stub := core.NewStubWithConverter(cfg, sink, conv)
		for i := 0; i < *count; i++ {
			if i > 0 {
				touch(*dirty)
			}
			start := time.Now()
			ci, err := stub.Call(msg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("send %2d: %-26s %8d bytes  %6d rewritten  %v\n",
				i+1, ci.Match, ci.Bytes, ci.ValuesRewritten,
				time.Since(start).Round(time.Microsecond))
		}
		st := stub.Stats()
		fmt.Printf("totals: %d calls — %d first-time, %d content, %d structural, %d partial, %d full\n",
			st.Calls, st.FirstTimeSends, st.ContentMatches, st.StructuralMatches,
			st.PartialMatches, st.FullSerializations)
	case "gsoap", "xsoap":
		var ser baseline.Serializer = &baseline.GSOAPLike{Conv: conv}
		if *engine == "xsoap" {
			ser = &baseline.XSOAPLike{Conv: conv}
		}
		client := baseline.NewClient(ser, sink)
		for i := 0; i < *count; i++ {
			if i > 0 {
				touch(*dirty)
			}
			start := time.Now()
			bytes, err := client.Call(msg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("send %2d: %-26s %8d bytes  %v\n",
				i+1, ser.Name()+" full", bytes, time.Since(start).Round(time.Microsecond))
		}
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsoap-send:", err)
	os.Exit(1)
}
