package serverpool

import (
	"bytes"
	"errors"
	"testing"

	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// FuzzDeltaFrame is the runtime-level half of the patch-frame fuzz: the
// wire-level target (internal/wire) proves the codec, this one proves
// the replica. A synchronized base is planted and arbitrary bytes are
// dispatched as a patch frame against the live replica. Invariants:
// never panic; every refusal wraps wire.ErrDeltaResync; every accepted
// reconstruction hashes to the frame's declared checksum; and whatever
// the frame did, the replica must afterwards serve a fresh sync, an
// identity patch reconstructing the base byte-for-byte, and a
// self-checked full-body call — a fuzz input may desynchronize delta
// state, but never corrupt the runtime.
func FuzzDeltaFrame(f *testing.F) {
	base := newClient(8).body(f)
	identity := func() []byte {
		p := wire.AppendDeltaHeader(nil, 3, 1, 2, len(base), wire.DeltaCRC(base), 1)
		p = wire.AppendDeltaRegionHeader(p, 10, 5)
		return append(p, base[10:15]...)
	}

	// Seeds: a valid identity patch against the planted base, its bare
	// header, a zero-region frame at the wrong epoch, and the raw body.
	f.Add(identity())
	f.Add(identity()[:wire.DeltaHeaderLen])
	f.Add(wire.AppendDeltaHeader(nil, 3, 9, 10, len(base), wire.DeltaCRC(base), 0))
	f.Add(base)

	f.Fuzz(func(t *testing.T, b []byte) {
		rt := newSumRuntime(Options{Delta: true, DifferentialDeserialization: true, SelfCheck: true})
		h := rt.HTTPHandler()

		sync := func() {
			req := &transport.Request{Method: "POST", ConnID: 7, Body: base,
				DeltaMode: transport.DeltaSync, DeltaTID: 3, DeltaEpoch: 1}
			if _, err := h(req); err != nil {
				t.Fatalf("sync store: %v", err)
			}
			if !req.DeltaAck || req.DeltaAckTID != 3 || req.DeltaAckEpoch != 1 {
				t.Fatalf("sync not acked: tid %d epoch %d", req.DeltaAckTID, req.DeltaAckEpoch)
			}
		}
		sync()

		slot, r := rt.acquire(reg.Key{Conn: 7})
		got, err := r.bases.apply(&transport.Request{ConnID: 7, Body: b})
		switch {
		case err != nil && !errors.Is(err, wire.ErrDeltaResync):
			rt.release(slot)
			t.Fatalf("refusal does not wrap ErrDeltaResync: %v", err)
		case err == nil && wire.DeltaCRC(got) != r.bases.frame.BodyCRC:
			rt.release(slot)
			t.Fatalf("accepted body CRC %08x != frame %08x", wire.DeltaCRC(got), r.bases.frame.BodyCRC)
		}
		rt.release(slot)

		// Recovery: re-sync, reconstruct the base through an identity
		// patch, then run a checked full decode on the same replica.
		sync()
		slot, r = rt.acquire(reg.Key{Conn: 7})
		got, err = r.bases.apply(&transport.Request{ConnID: 7, Body: identity()})
		if err != nil {
			rt.release(slot)
			t.Fatalf("identity patch refused after fuzz frame: %v", err)
		}
		if !bytes.Equal(got, base) {
			rt.release(slot)
			t.Fatalf("identity patch reconstructed %d bytes != base %d", len(got), len(base))
		}
		rt.release(slot)
		if _, err := h(&transport.Request{Method: "POST", ConnID: 7, Body: base}); err != nil {
			t.Fatalf("full-body call after fuzz frame: %v", err)
		}
		if st := rt.Stats(); st.SelfCheckFails != 0 {
			t.Fatalf("self-check fails: %d", st.SelfCheckFails)
		}
	})
}
