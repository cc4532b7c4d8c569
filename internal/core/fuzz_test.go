package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/membuf"
	"bsoap/internal/wire"
)

// FuzzMutationSchedule drives the template's whole mutation algebra from
// the input: values set shorter, longer and past their field, a string
// grown by a few bytes, by a page or past the split threshold and shrunk
// again, an array resized and rebuilt, a rebind to a same-shape message,
// a template marked suspect. The first byte picks the width policy (exact,
// narrow, stuffed, maximal), the chunk configuration (default, 64 B chunks
// with 8 B slack, 512 B chunks) and stealing; the second, the array's
// length. After every call the template must equal a from-scratch
// serialization modulo padding and hold the chunk and DUT invariants,
// every DUT entry must lie inside a chunk of its own buffer, and the
// buffers' footprints must add up to exactly the arenas the pool has out.
func FuzzMutationSchedule(f *testing.F) {
	const (
		opCall       = iota
		opShorter    // a leaf's shortest value
		opLonger     // a leaf's longest value
		opBeyond     // a value past the leaf's field width
		opGrowString // a few bytes, half a KB to 4 KB, or 16–64 KB more
		opShrinkString
		opResize // resize the array, optionally call, and rebuild it
		opRebind // switch to the other same-shape message
		opSuspect
		nOps

		maxOps = 64
	)
	// Default chunks, exact widths. The message, a few hundred bytes, is
	// fitted into a 512 B or 1 KB arena; growing its string by 512 B is the
	// fitted tail's first widening, past its slack, so the chunk grows.
	// Growing it by 64 KB more passes the split threshold, splitting the
	// fitted tail.
	f.Add([]byte{0, 3, opCall, 0, opGrowString, 0x40, opCall, 0})
	f.Add([]byte{0, 3, opCall, 0, opGrowString, 0x40, opCall, 0,
		opGrowString, 0x83, opCall, 0, opShrinkString, 7, opCall, 0})
	// Tiny chunks with stealing, every leaf widened in turn.
	f.Add([]byte{4 + 12, 9, opCall, 0, opLonger, 1, opLonger, 2, opCall, 0,
		opBeyond, 11, opCall, 0, opShorter, 3, opCall, 0})
	// Stuffed and maximal widths through rebinds, suspects and resizes.
	f.Add([]byte{2, 5, opCall, 0, opRebind, 0, opLonger, 4, opCall, 0,
		opSuspect, 0, opCall, 0, opResize, 0x82, opCall, 0})
	f.Add([]byte{3 + 8, 15, opCall, 0, opResize, 1, opCall, 0, opBeyond, 0,
		opGrowString, 0x45, opCall, 0, opRebind, 0, opCall, 0})

	policies := []WidthPolicy{
		{},
		{Int: 2, Double: 4, Bool: 4, String: 4},
		{Int: 9, Double: 18, Bool: 5, String: 12},
		{Int: MaxWidth, Double: MaxWidth, Bool: MaxWidth},
	}
	chunks := []chunk.Config{
		{},
		{ChunkSize: 64, TrailingSlack: 8},
		{ChunkSize: 512, TrailingSlack: 64},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		if max := 2 + 2*maxOps; len(in) > max {
			in = in[:max] // a longer schedule only slows minimization down
		}
		pool := membuf.NewPool()
		pool.EnableTracking()
		defer pool.DisableTracking()
		sel := int(in[0])
		cfg := Config{
			Width:          policies[sel%4],
			Chunk:          chunks[sel/4%3],
			EnableStealing: sel/12%2 == 1,
		}
		fresh := cfg // the oracle's arenas come from the default pool
		cfg.Chunk.Pool = pool
		n := 1 + int(in[1])%16
		msgs := [2]*wire.Message{scheduleMessage(n, 1), scheduleMessage(n, 2)}
		cur := 0
		sink := &captureSink{}
		s := NewStub(cfg, sink)

		call := func() {
			t.Helper()
			m := msgs[cur]
			if _, err := s.Call(m); err != nil {
				t.Fatal(err)
			}
			tpl := s.Template(m.Operation(), m.Signature())
			if tpl == nil {
				t.Fatal("no template stored")
			}
			if !bytes.Equal(sink.data, tpl.Bytes()) {
				t.Fatal("sent bytes differ from the template")
			}
			oracle := &captureSink{}
			o := NewStub(fresh, oracle)
			if _, err := o.Call(m); err != nil {
				t.Fatal(err)
			}
			o.Store().ReleaseAll()
			if got, want := stripPadding(sink.data), stripPadding(oracle.data); !bytes.Equal(got, want) {
				t.Fatalf("template differs from a from-scratch serialization\n got: %s\nwant: %s", got, want)
			}
			footprint := 0
			s.Store().EachTemplate(func(_ string, tpl *Template) {
				buf := tpl.Buffer()
				buf.CheckInvariants()
				tpl.Table().CheckInvariants()
				own := map[*chunk.Chunk]bool{}
				for c := buf.Head(); c != nil; c = c.Next() {
					own[c] = true
				}
				tab := tpl.Table()
				for i := 0; i < tab.Len(); i++ {
					if e := tab.At(i); !own[tab.Chunk(e)] || tab.SpanEnd(e) > tab.Chunk(e).Len() {
						t.Fatalf("entry %d lies outside its buffer's chunks", i)
					}
				}
				footprint += buf.Footprint()
			})
			if live := pool.LiveBytes(); footprint != live {
				t.Fatalf("templates' footprints add up to %d B, the pool has %d B out", footprint, live)
			}
		}

		for in = in[2:]; len(in) >= 2; in = in[2:] {
			arg := int(in[1])
			m := msgs[cur]
			leaf := arg % m.NumLeaves()
			switch int(in[0]) % nOps {
			case opCall:
				call()
			case opShorter:
				setLeaf(m, leaf, 1)
			case opLonger:
				setLeaf(m, leaf, 30)
			case opBeyond:
				width := 0
				if tpl := s.Template(m.Operation(), m.Signature()); tpl != nil {
					width = tpl.Table().At(leaf).Width()
				}
				setLeaf(m, leaf, width+1+arg%64)
			case opGrowString:
				grow := arg%40 + 1
				switch arg & 0xC0 {
				case 0x40:
					grow = 512 * (1 + arg%8)
				case 0x80, 0xC0:
					grow = (16 << 10) * (1 + arg%4)
				}
				str := m.LeafString(0)
				if len(str)+grow > 96<<10 {
					str = ""
				}
				m.SetLeafString(0, str+stringOf(grow))
			case opShrinkString:
				str := m.LeafString(0)
				m.SetLeafString(0, str[:arg%(len(str)+1)])
			case opResize:
				m.ResizeArray(1, n+1+arg%5)
				if arg&0x80 != 0 {
					call()
				}
				m.ResizeArray(1, n)
			case opRebind:
				cur = 1 - cur
			case opSuspect:
				if tpl := s.Template(m.Operation(), m.Signature()); tpl != nil {
					tpl.MarkSuspect()
				}
			}
		}
	})
}

// scheduleMessage builds the fuzz schedule's message: a string first, so
// the schedule can find it at leaf 0, then an int array of n, a double, a
// struct array of two MIOs and a bool. seed varies the values, so two
// messages of one shape differ.
func scheduleMessage(n, seed int) *wire.Message {
	m := wire.NewMessage("urn:fuzz", "schedule")
	m.AddString("name", stringOf(3*seed))
	ints := m.AddIntArray("ints", n)
	for i := 0; i < n; i++ {
		ints.Set(i, int32(seed*100+i))
	}
	m.AddDouble("ratio", float64(seed)/3)
	mios := m.AddStructArray("mios", mioType(), 2)
	mios.SetDouble(1, 2, float64(seed)*1e10)
	m.AddBool("ok", seed%2 == 0)
	m.ClearDirty()
	return m
}

// setLeaf gives leaf i a value whose lexical form is as close to size
// characters as its type allows: a string of that length, else the
// type's shortest (size 1) or longest form.
func setLeaf(m *wire.Message, i, size int) {
	short := size <= 1
	switch m.LeafType(i).Kind {
	case wire.String:
		m.SetLeafString(i, stringOf(size))
	case wire.Int:
		if short {
			m.SetLeafInt(i, 7)
		} else {
			m.SetLeafInt(i, math.MinInt32)
		}
	case wire.Double:
		if short {
			m.SetLeafDouble(i, 7)
		} else {
			m.SetLeafDouble(i, -math.MaxFloat64)
		}
	case wire.Bool:
		m.SetLeafBool(i, short)
	}
}

// stringOf returns n characters of text, some of which escape.
func stringOf(n int) string {
	return strings.Repeat("ab&c<", n/5+1)[:n]
}

// stripPadding drops the whitespace between markup: the stuffing a
// template pads its fields with. The schedule's strings hold none.
func stripPadding(b []byte) []byte {
	out := make([]byte, 0, len(b))
	gap := false
	for _, c := range b {
		switch {
		case c == '>':
			gap = true
		case c == '<':
			gap = false
		case gap && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		}
		out = append(out, c)
	}
	return out
}

// EachTemplate visits every stored template, most recently used first
// within each operation (debug dumps, tests). The visit must not call
// back into the store.
func (st *Store) EachTemplate(visit func(op string, t *Template)) {
	for op, l := range st.byOp {
		for _, t := range l {
			if t != nil {
				visit(op, t)
			}
		}
	}
}
