package wire

import (
	"bytes"
	"errors"
	"testing"
)

// buildFrame assembles a frame from a base body and a patched body by
// encoding the differing runs as regions — the same shape the core
// encoder produces from dirty DUT entries.
func buildFrame(t *testing.T, tid, baseEpoch, newEpoch uint64, base, patched []byte) []byte {
	t.Helper()
	if len(base) != len(patched) {
		t.Fatalf("buildFrame: base %d bytes, patched %d", len(base), len(patched))
	}
	type run struct{ off, end int }
	var runs []run
	for i := 0; i < len(base); {
		if base[i] == patched[i] {
			i++
			continue
		}
		j := i
		for j < len(base) && base[j] != patched[j] {
			j++
		}
		runs = append(runs, run{i, j})
		i = j
	}
	frame := AppendDeltaHeader(nil, tid, baseEpoch, newEpoch, len(patched), DeltaCRC(patched), len(runs))
	for _, r := range runs {
		frame = AppendDeltaRegionHeader(frame, r.off, r.end-r.off)
		frame = append(frame, patched[r.off:r.end]...)
	}
	return frame
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	base := []byte("<a><b>111</b><c>hello</c><d>222</d></a>")
	patched := []byte("<a><b>999</b><c>hello</c><d>888</d></a>")
	frame := buildFrame(t, 7, 3, 4, base, patched)

	var f DeltaFrame
	if err := ParseDeltaFrame(&f, frame); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.TID != 7 || f.BaseEpoch != 3 || f.NewEpoch != 4 {
		t.Fatalf("header fields: %+v", f)
	}
	if len(f.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(f.Regions))
	}
	work := append([]byte(nil), base...)
	old, err := f.Apply(work, nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !bytes.Equal(work, patched) {
		t.Fatalf("reconstructed body mismatch:\n got %q\nwant %q", work, patched)
	}
	if string(old) != "111222" {
		t.Fatalf("overwritten bytes = %q, want the two regions' old bytes in order", old)
	}
}

func TestDeltaFrameZeroRegions(t *testing.T) {
	body := []byte("<a>unchanged</a>")
	frame := AppendDeltaHeader(nil, 1, 5, 5, len(body), DeltaCRC(body), 0)
	var f DeltaFrame
	if err := ParseDeltaFrame(&f, frame); err != nil {
		t.Fatalf("parse: %v", err)
	}
	work := append([]byte(nil), body...)
	if _, err := f.Apply(work, nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// A zero-region frame against a *different* base must fail the CRC.
	bad := append([]byte(nil), body...)
	bad[3] ^= 0xff
	if _, err := f.Apply(bad, nil); !errors.Is(err, ErrDeltaResync) {
		t.Fatalf("apply on mismatched base: err = %v, want ErrDeltaResync", err)
	}
}

func TestDeltaFrameRejections(t *testing.T) {
	body := []byte("<a>0123456789</a>")
	good := buildFrame(t, 1, 1, 2, []byte("<a>xxxxxxxxxx</a>"), body)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:DeltaHeaderLen-1],
		"bad magic":   mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"trailing":    append(append([]byte(nil), good...), 0x00),
		"truncated":   good[:len(good)-1],
		"huge bodies": mutate(func(b []byte) []byte { b[28], b[29], b[30], b[31] = 0xff, 0xff, 0xff, 0xff; return b }),
		"huge count":  mutate(func(b []byte) []byte { b[36], b[37], b[38], b[39] = 0xff, 0xff, 0xff, 0xff; return b }),
	}
	var f DeltaFrame
	for name, b := range cases {
		if err := ParseDeltaFrame(&f, b); !errors.Is(err, ErrDeltaResync) {
			t.Errorf("%s: err = %v, want ErrDeltaResync", name, err)
		}
	}

	// Region out of bounds.
	frame := AppendDeltaHeader(nil, 1, 1, 2, 8, 0, 1)
	frame = AppendDeltaRegionHeader(frame, 6, 4)
	frame = append(frame, "abcd"...)
	if err := ParseDeltaFrame(&f, frame); !errors.Is(err, ErrDeltaResync) {
		t.Errorf("out-of-bounds region: err = %v", err)
	}

	// Overlapping / out-of-order regions.
	frame = AppendDeltaHeader(nil, 1, 1, 2, 16, 0, 2)
	frame = AppendDeltaRegionHeader(frame, 4, 4)
	frame = append(frame, "abcd"...)
	frame = AppendDeltaRegionHeader(frame, 2, 4)
	frame = append(frame, "efgh"...)
	if err := ParseDeltaFrame(&f, frame); !errors.Is(err, ErrDeltaResync) {
		t.Errorf("overlapping regions: err = %v", err)
	}

	// Empty region.
	frame = AppendDeltaHeader(nil, 1, 1, 2, 8, 0, 1)
	frame = AppendDeltaRegionHeader(frame, 0, 0)
	if err := ParseDeltaFrame(&f, frame); !errors.Is(err, ErrDeltaResync) {
		t.Errorf("empty region: err = %v", err)
	}
}

func TestDeltaFrameApplySizeMismatch(t *testing.T) {
	body := []byte("<a>12345</a>")
	frame := AppendDeltaHeader(nil, 1, 1, 1, len(body), DeltaCRC(body), 0)
	var f DeltaFrame
	if err := ParseDeltaFrame(&f, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Apply(body[:len(body)-1], nil); !errors.Is(err, ErrDeltaResync) {
		t.Fatalf("short base: err = %v, want ErrDeltaResync", err)
	}
}

func TestDeltaHeaderValues(t *testing.T) {
	v := string(AppendDeltaSync(nil, 0xdeadbeef, 0x2a))
	if v != "sync=deadbeef.2a" {
		t.Fatalf("sync value = %q", v)
	}
	tid, ep, ok := ParseDeltaSync(v)
	if !ok || tid != 0xdeadbeef || ep != 0x2a {
		t.Fatalf("ParseDeltaSync(%q) = %x, %x, %v", v, tid, ep, ok)
	}

	a := string(AppendDeltaAck(nil, 1, 0))
	if a != "ack=1.0" {
		t.Fatalf("ack value = %q", a)
	}
	tid, ep, ok = ParseDeltaAck(a)
	if !ok || tid != 1 || ep != 0 {
		t.Fatalf("ParseDeltaAck(%q) = %x, %x, %v", a, tid, ep, ok)
	}

	for _, bad := range []string{"", "sync=", "sync=1", "sync=.1", "sync=1.", "sync=xyz.1", "sync=1.1.1x", "ack=1.2", "sync=11111111111111111.1"} {
		if _, _, ok := ParseDeltaSync(bad); ok {
			t.Errorf("ParseDeltaSync(%q) accepted", bad)
		}
	}
	if _, _, ok := ParseDeltaAck("sync=1.2"); ok {
		t.Error("ParseDeltaAck accepted a sync value")
	}
}

// FuzzDeltaFrame feeds arbitrary bytes through the parser and, when
// parsing succeeds, applies the frame to a fresh base of the declared
// size. Invariants: never panic; on successful Apply the reconstructed
// body must actually hash to the frame's CRC (i.e. the checksum gate
// cannot be bypassed) and the returned bytes are what the regions
// overwrote; on failed Apply the error wraps ErrDeltaResync and the base
// is as it was.
func FuzzDeltaFrame(f *testing.F) {
	patched := []byte("<a><b>222</b><c>hellp</c></a>")
	var runs []byte
	runs = AppendDeltaHeader(runs, 3, 1, 2, len(patched), DeltaCRC(patched), 1)
	runs = AppendDeltaRegionHeader(runs, 6, 3)
	runs = append(runs, "222"...)
	f.Add(runs)
	f.Add(AppendDeltaHeader(nil, 1, 0, 0, 4, DeltaCRC([]byte("abcd")), 0))
	f.Add([]byte("<?xml version=\"1.0\"?><e/>"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var fr DeltaFrame
		if err := ParseDeltaFrame(&fr, b); err != nil {
			if !errors.Is(err, ErrDeltaResync) {
				t.Fatalf("parse error not ErrDeltaResync: %v", err)
			}
			return
		}
		if fr.BodyLen > 1<<20 {
			return // cap fuzz memory; parser already bounds at MaxDeltaBodyLen
		}
		work := make([]byte, fr.BodyLen)
		for i := range work {
			work[i] = byte(i)
		}
		before := bytes.Clone(work)
		old, err := fr.Apply(work, nil)
		if err != nil {
			if !errors.Is(err, ErrDeltaResync) {
				t.Fatalf("apply error not ErrDeltaResync: %v", err)
			}
			if !bytes.Equal(work, before) {
				t.Fatal("refused frame left the base changed")
			}
			return
		}
		if DeltaCRC(work) != fr.BodyCRC {
			t.Fatalf("Apply succeeded but body CRC %08x != frame %08x", DeltaCRC(work), fr.BodyCRC)
		}
		for _, r := range fr.Regions {
			if !bytes.Equal(old[:len(r.Bytes)], before[r.Off:r.Off+len(r.Bytes)]) {
				t.Fatalf("region at %d: returned bytes are not the ones it overwrote", r.Off)
			}
			old = old[len(r.Bytes):]
		}
	})
}
