package fastconv

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"bsoap/internal/xsdlex"
)

func TestWriteIntMatchesStrconv(t *testing.T) {
	f := func(v int32) bool {
		var buf [xsdlex.MaxIntWidth]byte
		n := WriteInt(buf[:], v)
		return string(buf[:n]) == strconv.FormatInt(int64(v), 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int32{0, 1, -1, 9, 10, -10, math.MaxInt32, math.MinInt32} {
		var buf [xsdlex.MaxIntWidth]byte
		n := WriteInt(buf[:], v)
		if want := strconv.FormatInt(int64(v), 10); string(buf[:n]) != want {
			t.Errorf("WriteInt(%d) = %q, want %q", v, buf[:n], want)
		}
	}
}

func TestWriteDoubleMatchesXsdlex(t *testing.T) {
	f := func(v float64) bool {
		var buf [xsdlex.MaxDoubleWidth]byte
		n := WriteDouble(buf[:], v)
		return string(buf[:n]) == string(xsdlex.AppendDouble(nil, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteBool(t *testing.T) {
	var buf [8]byte
	if n := WriteBool(buf[:], true); string(buf[:n]) != "true" {
		t.Errorf("WriteBool(true) = %q", buf[:n])
	}
	if n := WriteBool(buf[:], false); string(buf[:n]) != "false" {
		t.Errorf("WriteBool(false) = %q", buf[:n])
	}
}

func TestPad(t *testing.T) {
	b := []byte("XXXXXXXX")
	Pad(b, 2, 6)
	if string(b) != "XX    XX" {
		t.Errorf("Pad = %q", b)
	}
	Pad(b, 3, 3) // empty range is a no-op
	if string(b) != "XX    XX" {
		t.Errorf("Pad empty range changed buffer: %q", b)
	}
}

func BenchmarkWriteDouble(b *testing.B) {
	var buf [xsdlex.MaxDoubleWidth]byte
	v := 3.14159265358979
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WriteDouble(buf[:], v)
	}
}

func TestDoubleConverterSwap(t *testing.T) {
	var buf [xsdlex.MaxDoubleWidth]byte
	def := WriteDouble(buf[:], 3.25)
	defText := string(buf[:def])

	n := Dragon.WriteDouble(buf[:], 3.25)
	if string(buf[:n]) != defText {
		t.Fatalf("dragon converter diverges: %q vs %q", buf[:n], defText)
	}
	// XSD special-value names must be preserved by both converters.
	for _, c := range []Converter{0, Dragon} {
		if n = c.WriteDouble(buf[:], math.Inf(-1)); string(buf[:n]) != "-INF" {
			t.Fatalf("converter %d: -Inf = %q", c, buf[:n])
		}
		if n = c.WriteDouble(buf[:], math.NaN()); string(buf[:n]) != "NaN" {
			t.Fatalf("converter %d: NaN = %q", c, buf[:n])
		}
	}
}

func TestDragonConverterMatchesDefaultBroadly(t *testing.T) {
	f := func(v float64) bool {
		var a, b [xsdlex.MaxDoubleWidth]byte
		na := WriteDouble(a[:], v)
		nb := Dragon.WriteDouble(b[:], v)
		return string(a[:na]) == string(b[:nb])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
