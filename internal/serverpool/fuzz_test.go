package serverpool

import (
	"bytes"
	"errors"
	"math"
	"testing"

	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// FuzzDeltaFrame is the runtime-level half of the patch-frame fuzz: the
// wire-level target (internal/wire) proves the codec, this one proves the
// decode from a frame's own regions. A synchronized base is planted on a
// live replica and the input becomes one patch frame against it: taken
// as it is when it starts with the frame magic (malformed frames
// included), otherwise read as a recipe of regions (patchRecipe) that
// land over values or over markup, with the right checksum or a wrong
// one. Oracles: every refusal of the frame wraps wire.ErrDeltaResync; an
// accepted frame leaves the held bytes hashing to the frame's checksum
// and the held message equal, leaf by leaf, to a from-scratch
// soapdec.Decode of those bytes; any refused or undecodable frame leaves
// the held bytes and message as they were, or no template at all. And
// whatever the frame did, the replica must afterwards serve a fresh sync,
// an identity patch that reconstructs the base byte for byte, and a
// self-checked full-body call — a fuzz input may desynchronize delta
// state, but never corrupt the runtime.
func FuzzDeltaFrame(f *testing.F) {
	base := newClient(8).body(f)
	identity := func() []byte {
		p := wire.AppendDeltaHeader(nil, 3, 1, 2, len(base), wire.DeltaCRC(base), 1)
		p = wire.AppendDeltaRegionHeader(p, 10, 5)
		return append(p, base[10:15]...)
	}
	value := bytes.Index(base, []byte("<item>")) + len("<item>")

	// Seeds: a valid identity patch against the planted base, its bare
	// header, a zero-region frame at the wrong epoch, and the raw body
	// (a recipe); then recipes over a value with the right and the wrong
	// checksum, and one over markup.
	f.Add(identity())
	f.Add(identity()[:wire.DeltaHeaderLen])
	f.Add(wire.AppendDeltaHeader(nil, 3, 9, 10, len(base), wire.DeltaCRC(base), 0))
	f.Add(base)
	f.Add([]byte{0, byte(value), 2, 7, 5})
	f.Add([]byte{1, byte(value), 2, 7, 5})
	f.Add([]byte{0, 0, 3, 20, 21, 22})

	f.Fuzz(func(t *testing.T, b []byte) {
		// The handler keeps the message it last ran on: the held template's
		// own, which a refused frame must leave as it was.
		var seen *wire.Message
		rt := New(Options{Delta: true, SelfCheck: true})
		rt.Register(sumSchema(), func() Handler {
			sum := sumFactory()
			return func(m *wire.Message) (*wire.Message, error) {
				seen = m
				return sum(m)
			}
		})
		h := rt.HTTPHandler()
		call := func(mode transport.DeltaMode, body []byte) (*transport.Request, error) {
			req := &transport.Request{Method: "POST", ConnID: 7, Body: body,
				DeltaMode: mode, DeltaTID: 3, DeltaEpoch: 1}
			_, err := h(req)
			return req, err
		}
		sync := func() {
			req, err := call(transport.DeltaSync, base)
			if err != nil {
				t.Fatalf("sync store: %v", err)
			}
			if !req.DeltaAck || req.DeltaAckTID != 3 || req.DeltaAckEpoch != 1 {
				t.Fatalf("sync not acked: tid %d epoch %d", req.DeltaAckTID, req.DeltaAckEpoch)
			}
		}
		sync()

		frame := b
		if !bytes.HasPrefix(b, identity()[:4]) {
			frame = patchRecipe(base, b)
		}
		before, ok := heldBase(rt, seen)
		if !ok {
			t.Fatal("no base after the sync")
		}
		_, err := call(transport.DeltaPatch, frame)
		after, held := heldBase(rt, seen)
		switch {
		case err == nil:
			var fr wire.DeltaFrame
			if perr := wire.ParseDeltaFrame(&fr, frame); perr != nil {
				t.Fatalf("accepted a frame that does not parse: %v", perr)
			}
			if !held || wire.DeltaCRC(after.body) != fr.BodyCRC {
				t.Fatal("accepted frame: held body does not hash to the frame's checksum")
			}
			want, derr := soapdec.Decode(after.body, rt.lookupSchema, false)
			if derr != nil {
				t.Fatalf("accepted a body the reference parse rejects: %v", derr)
			}
			if i := firstDifference(after.doubles, want.Msg); i >= 0 {
				t.Fatalf("accepted frame decoded leaf %d differently from the reference parse", i)
			}
		case held && (!bytes.Equal(after.body, before.body) || firstDifference(before.doubles, after.msg) >= 0):
			t.Fatalf("refused frame (%v) changed the held template", err)
		case !errors.Is(err, wire.ErrDeltaResync) && held:
			t.Fatalf("frame that did not decode (%v) left its template", err)
		}

		// Recovery: re-sync, reconstruct the base through an identity
		// patch, then run a checked full decode on the same replica.
		sync()
		if _, err := call(transport.DeltaPatch, identity()); err != nil {
			t.Fatalf("identity patch refused after fuzz frame: %v", err)
		}
		if got, _ := heldBase(rt, seen); !bytes.Equal(got.body, base) {
			t.Fatalf("identity patch reconstructed %d bytes != base %d", len(got.body), len(base))
		}
		if _, err := call(transport.DeltaNone, base); err != nil {
			t.Fatalf("full-body call after fuzz frame: %v", err)
		}
		if st := rt.Stats(); st.SelfCheckFails != 0 {
			t.Fatalf("self-check fails: %d", st.SelfCheckFails)
		}
	})
}

// patchRecipe turns fuzz bytes into a well-formed patch frame against
// base for template 3, epoch 1 → 2. The low bit of the first byte asks
// for a wrong checksum; then each region is two bytes — how far past the
// previous region it starts, and its length (1–16) — followed by one
// byte per region byte, drawn from digits, number punctuation and markup
// so that regions over values often still lex.
func patchRecipe(base, b []byte) []byte {
	const alphabet = "0123456789.-+eE <>/itemINFNa"
	wrongCRC := len(b) > 0 && b[0]&1 != 0
	if len(b) > 0 {
		b = b[1:]
	}
	body := bytes.Clone(base)
	var regions [][2]int
	for pos := 0; len(b) >= 2; {
		off, n := pos+int(b[0]), int(b[1])%16+1
		b = b[2:]
		if off+n > len(body) {
			break
		}
		for i := off; i < off+n; i++ {
			body[i] = '0'
			if len(b) > 0 {
				body[i], b = alphabet[int(b[0])%len(alphabet)], b[1:]
			}
		}
		regions = append(regions, [2]int{off, n})
		pos = off + n
	}
	crc := wire.DeltaCRC(body)
	if wrongCRC {
		crc ^= 1
	}
	frame := wire.AppendDeltaHeader(nil, 3, 1, 2, len(body), crc, len(regions))
	for _, r := range regions {
		frame = wire.AppendDeltaRegionHeader(frame, r[0], r[1])
		frame = append(frame, body[r[0]:r[0]+r[1]]...)
	}
	return frame
}

// heldState is a copy of what conn 7's keeper holds for template 3: its
// bytes, and the values of msg, the template's message.
type heldState struct {
	body    []byte
	msg     *wire.Message
	doubles []float64
}

func heldBase(rt *Runtime, msg *wire.Message) (heldState, bool) {
	slot, r := rt.acquire(reg.Key{Conn: 7})
	defer rt.release(slot)
	var b *deltaBase
	r.bases.bases.FromFront(func(id uint64, o *deltaBase) bool {
		if id == 3 {
			b = o
		}
		return b == nil
	})
	if b == nil {
		return heldState{}, false
	}
	s := heldState{body: bytes.Clone(b.body), msg: msg}
	for i := 0; i < s.msg.NumLeaves(); i++ {
		s.doubles = append(s.doubles, s.msg.LeafDouble(i))
	}
	return s, true
}

// firstDifference returns the first leaf at which m does not hold the
// doubles in want (NaN equal to NaN), or -1.
func firstDifference(want []float64, m *wire.Message) int {
	if m.NumLeaves() != len(want) {
		return 0
	}
	for i, w := range want {
		if g := m.LeafDouble(i); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}
