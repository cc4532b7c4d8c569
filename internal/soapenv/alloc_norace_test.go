//go:build !race

package soapenv

import (
	"testing"

	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestAppendMessageAllocatesNothing pins the from-scratch renderer's
// contract: once its buffer has grown to the message, rendering a
// message of doubles, or of MIO structs, costs no allocation at all —
// not one per double, as a converter reached through a process-global
// function value once cost. (AllocsPerRun counts the race detector's
// own allocations, hence the build tag.)
func TestAppendMessageAllocatesNothing(t *testing.T) {
	for name, m := range map[string]*wire.Message{
		"doubles": workload.NewDoubles(2000, workload.FillIntermediate).Msg,
		"mios":    workload.NewMIOs(300, workload.FillIntermediate).Msg,
	} {
		var c Compiler
		buf := c.AppendMessage(nil, m, 0)
		if a := testing.AllocsPerRun(20, func() { buf = c.AppendMessage(buf[:0], m, 0) }); a != 0 {
			t.Errorf("%s: %.1f allocations per render, want 0", name, a)
		}
	}
}
