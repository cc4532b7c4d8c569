//go:build !race

package soapdec

import (
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/wire"
)

// TestScratchDecodeAllocatesNothing pins Scratch's contract: once its
// message has grown to the shape, decoding a body of doubles, or of MIO
// structs, costs no allocation — a server that refuses a shape a
// template decodes it without garbage. (AllocsPerRun counts the race
// detector's own allocations, hence the build tag.)
func TestScratchDecodeAllocatesNothing(t *testing.T) {
	doubles := wire.NewMessage("urn:dec", "doubles")
	d := doubles.AddDoubleArray("v", 2000)
	mios := wire.NewMessage("urn:dec", "mios")
	m := mios.AddStructArray("m", mioType(), 300)
	for i := 0; i < 2000; i++ {
		d.Set(i, float64(i)/7)
	}
	for i := 0; i < 300; i++ {
		m.SetInt(i, 0, int32(i))
		m.SetDouble(i, 2, float64(i)/3)
	}
	for name, msg := range map[string]*wire.Message{"doubles": doubles, "mios": mios} {
		body := new(baseline.GSOAPLike).Serialize(msg)
		schema := schemaFor(msg)
		lookup := func(string) (*Schema, bool) { return schema, true }
		var s Scratch
		if _, err := s.Decode(body, lookup); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a := testing.AllocsPerRun(20, func() { s.Decode(body, lookup) }); a != 0 {
			t.Errorf("%s: %.1f allocations per decode, want 0", name, a)
		}
	}
}
