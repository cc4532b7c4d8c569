package diffdeser

import (
	"bytes"
	"math/rand"
	"testing"

	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// The tests below pin the diff walk's forward seek: a changed leaf is
// found from the last one hit, whatever the gap between them.

func TestSeekMatchesLinearScan(t *testing.T) {
	// Ranges as a body lays them out: ascending, with markup between.
	var ranges []soapdec.LeafRange
	for i := 0; i < 300; i++ {
		ranges = append(ranges, soapdec.LeafRange{Start: uint32(10*i + 3), End: uint32(10*i + 8)})
	}
	linear := func(from, off int) int {
		for from < len(ranges) && int(ranges[from].End) <= off {
			from++
		}
		return from
	}
	for from := 0; from <= len(ranges); from++ {
		lo := 0
		if from > 0 {
			lo = int(ranges[from-1].End) // every offset the walk reaches
		}
		for off := lo; off < 10*len(ranges)+5; off++ {
			if got, want := seek(ranges, from, off), linear(from, off); got != want {
				t.Fatalf("seek(from %d, off %d) = %d, want %d", from, off, got, want)
			}
		}
	}
}

// sparseGaps are the distances between changed leaves the seek must
// cover: every small one, and each power of two up to 512 with its
// neighbours, where a galloping search changes step.
func sparseGaps() []int {
	gaps := []int{1, 2, 3}
	for p := 4; p <= 512; p *= 2 {
		gaps = append(gaps, p-1, p, p+1)
	}
	return gaps
}

// TestSparseChangesAtEveryGap changes the first leaf, the last, and every
// gap-th one between, for each gap in sparseGaps, and decodes the body
// both ways the server does: whole (Deserializer.Decode) and from patch
// regions against the held body (Template.DecodeRegions). In the patch,
// the first changed leaf is split over two regions, so the second region
// starts inside the leaf the first ended in. Each decode must hold what
// a full parse reads and re-lex exactly the leaves that changed.
func TestSparseChangesAtEveryGap(t *testing.T) {
	const n = 1000
	c := newStuffedDoubles(n)
	lookup := testSchema(c.msg)
	d := New(lookup)
	held := c.body(t)
	if _, info, err := d.Decode("k", held); err != nil || !info.FullParse {
		t.Fatalf("first body: %+v, %v", info, err)
	}
	var tpl Template
	if _, info, err := tpl.DecodeRegions(held, []wire.DeltaRegion{{Bytes: held}}, nil, lookup); err != nil || !info.FullParse {
		t.Fatalf("first body through DecodeRegions: %+v, %v", info, err)
	}

	for round, gap := range sparseGaps() {
		var changed []int
		for i := 0; i < n; i += gap {
			changed = append(changed, i)
		}
		if changed[len(changed)-1] != n-1 {
			changed = append(changed, n-1)
		}
		for _, i := range changed {
			c.arr.Set(i, -float64(round+1)*1e4-float64(i)-0.5)
		}
		body := c.body(t)
		want, err := soapdec.Decode(body, lookup, false)
		if err != nil {
			t.Fatal(err)
		}

		msg, info, err := d.Decode("k", body)
		if err != nil || info.FullParse || info.ValuesReparsed != len(changed) {
			t.Fatalf("gap %d, whole body: %+v, %v; want %d re-lexed", gap, info, err, len(changed))
		}
		if diff := sameLeaves(msg, want.Msg); diff != "" {
			t.Fatalf("gap %d, whole body: differs from a full parse at %s", gap, diff)
		}

		var regions []wire.DeltaRegion
		var old []byte
		add := func(from, to int) {
			regions = append(regions, wire.DeltaRegion{Off: from, Bytes: body[from:to]})
			old = append(old, held[from:to]...)
		}
		for k, i := range changed {
			start, end := int(tpl.ranges[i].Start), int(tpl.ranges[i].End)
			if k == 0 {
				mid := start + (end-start)/2
				add(start, mid)
				add(mid, end)
				continue
			}
			add(start, end)
		}
		for _, g := range regions {
			copy(held[g.Off:], g.Bytes)
		}
		if !bytes.Equal(held, body) {
			t.Fatalf("gap %d: the regions do not cover every changed byte", gap)
		}
		msg, info, err = tpl.DecodeRegions(held, regions, old, lookup)
		if err != nil || info.FullParse || info.ValuesReparsed != len(changed) {
			t.Fatalf("gap %d, patch regions: %+v, %v; want %d re-lexed", gap, info, err, len(changed))
		}
		if diff := sameLeaves(msg, want.Msg); diff != "" {
			t.Fatalf("gap %d, patch regions: differs from a full parse at %s", gap, diff)
		}
	}
}

// BenchmarkDecodeSparse decodes 1 000 stuffed doubles of which a random
// tenth changed since the last body, the pipelined workload's mix, and
// reports the cost per changed leaf: the block compare of the whole body
// shared out, the seek and the re-lex. The bodies form a ring in which
// every step, the last to the first included, changes exactly a tenth.
func BenchmarkDecodeSparse(b *testing.B) {
	const n, ring = 1000, 32
	const changed = n / 10
	c := newStuffedDoubles(n)
	rng := rand.New(rand.NewSource(1))
	// Each step's leaves come round again half a ring later, so every
	// leaf toggles an even number of times and the ring closes.
	steps := make([][]int, ring)
	for i := 0; i < ring/2; i++ {
		steps[i] = rng.Perm(n)[:changed]
		steps[i+ring/2] = steps[i]
	}
	flipped := make([]bool, n)
	bodies := make([][]byte, ring)
	for i := range bodies {
		bodies[i] = c.body(b)
		for _, l := range steps[i] {
			flipped[l] = !flipped[l]
			v := float64(l)
			if flipped[l] {
				v = -v - 0.5
			}
			c.arr.Set(l, v)
		}
	}
	d := New(testSchema(c.msg))
	for _, body := range bodies {
		if _, _, err := d.Decode("k", body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info, err := d.Decode("k", bodies[i%ring]); err != nil || info.ValuesReparsed != changed {
			b.Fatalf("%+v, %v", info, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*changed), "ns/changed-leaf")
}
