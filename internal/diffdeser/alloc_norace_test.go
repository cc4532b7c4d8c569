//go:build !race

package diffdeser

import (
	"bytes"
	"testing"

	"bsoap/internal/soapdec"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestRefusedDecodesAllocateNothing rotates 2×MaxTemplatesPerKey+1 MIO
// array lengths through one key, each body changed in one value per
// turn: the held lengths decode on the fast path and the refused ones
// into the key's scratch message, so once the rotation has come round a
// whole turn of it allocates nothing. (AllocsPerRun counts the race
// detector's own allocations, hence the build tag.)
func TestRefusedDecodesAllocateNothing(t *testing.T) {
	var schema *soapdec.Schema
	d := New(func(string) (*soapdec.Schema, bool) { return schema, true })
	var bodies [][]byte
	for i := 0; i < 2*MaxTemplatesPerKey+1; i++ {
		m := workload.NewMIOs(100+10*i, workload.FillIntermediate).Msg
		if schema == nil {
			p := m.Params()[0]
			schema = &soapdec.Schema{Namespace: m.Namespace(), Op: m.Operation(),
				Params: []soapdec.ParamSpec{{Name: p.Name, Type: wire.ArrayOf(p.Type.Elem)}}}
		}
		bodies = append(bodies, soapenv.AppendMessage(nil, m, 0))
	}
	turn := 0
	rotate := func() {
		turn++
		for i, b := range bodies {
			// The last digit of the last value flips: same length, one region.
			b[bytes.LastIndex(b, []byte("</value>"))-1] ^= 1
			_, info, err := d.Decode("k", b)
			if err != nil || info.Refused != (i >= MaxTemplatesPerKey) || (i < MaxTemplatesPerKey && turn > 1 && info.FullParse) {
				t.Fatalf("turn %d, body %d: %+v, %v", turn, i, info, err)
			}
		}
	}
	rotate()
	rotate()
	if a := testing.AllocsPerRun(10, rotate); a != 0 {
		t.Errorf("%.1f allocations per rotation, want 0", a)
	}
}
