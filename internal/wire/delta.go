package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Differential transmission: the binary patch-frame format a delta-
// capable client sends instead of a full SOAP body when both ends hold
// the same template bytes.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "bSΔ1" (0x62 0x73 0xCE 0x94 — see deltaMagic)
//	4       8     template id (client-assigned, unique per template)
//	12      8     base epoch (content version the patch applies to)
//	20      8     new epoch (content version after the patch)
//	28      4     body length (full reconstructed body, bytes)
//	32      4     CRC32-C of the full reconstructed body
//	36      4     region count
//	40      —     regions: per region an 8-byte header (offset u32,
//	              length u32) followed by the region's bytes
//
// Regions must be strictly increasing, non-overlapping, non-empty and
// in-bounds; a zero-region frame asserts "the body equals the base"
// (the content-match case) and still carries the CRC for verification.
// The CRC, not the epoch pair, is the correctness authority: the epoch
// is a fast filter for skew, the checksum proves the reconstruction.

// DeltaHeaderLen is the fixed frame header size in bytes.
const DeltaHeaderLen = 40

// DeltaRegionHeaderLen is the per-region header size in bytes.
const DeltaRegionHeaderLen = 8

// deltaMagic guards against a delta frame being parsed out of anything
// that is not one (e.g. a stray XML body routed to the patch path).
var deltaMagic = [4]byte{0x62, 0x73, 0xCE, 0x94}

// MaxDeltaRegions bounds the region count a parser will accept; a frame
// claiming more is rejected before any region work. Real frames carry
// one region per coalesced dirty run, far below this.
const MaxDeltaRegions = 1 << 16

// MaxDeltaBodyLen bounds the reconstructed body size a parser will
// accept (matches the transport's request body cap).
const MaxDeltaBodyLen = 1 << 26

// ErrDeltaResync signals that a delta patch could not be applied (epoch
// skew, checksum mismatch, evicted base, malformed frame) and the
// sender must fall back to a full-body send and re-synchronize. It is
// a protocol-level outcome, not a connection failure: the connection
// stays usable and the template is not suspect.
var ErrDeltaResync = errors.New("wire: delta resync required")

// deltaCRC is the Castagnoli table; CRC32-C has hardware support on
// both amd64 and arm64, so checksumming a body costs well under the
// serialization it replaces.
var deltaCRC = crc32.MakeTable(crc32.Castagnoli)

// DeltaCRC returns the CRC32-C checksum of a full body.
func DeltaCRC(body []byte) uint32 { return crc32.Checksum(body, deltaCRC) }

// DeltaCRCUpdate folds more bytes into a running CRC32-C, so a chunked
// body can be checksummed without concatenation.
func DeltaCRCUpdate(crc uint32, p []byte) uint32 { return crc32.Update(crc, deltaCRC, p) }

// AppendDeltaHeader appends the 40-byte frame header to dst and returns
// the extended slice. The caller supplies the final region count and
// the CRC of the full reconstructed body.
func AppendDeltaHeader(dst []byte, tid, baseEpoch, newEpoch uint64, bodyLen int, bodyCRC uint32, regions int) []byte {
	dst = append(dst, deltaMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, tid)
	dst = binary.LittleEndian.AppendUint64(dst, baseEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, newEpoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = binary.LittleEndian.AppendUint32(dst, bodyCRC)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(regions))
	return dst
}

// AppendDeltaRegionHeader appends one 8-byte region header; the
// region's bytes follow it on the wire (the encoder gathers them
// separately, so template bytes are never copied into the frame).
func AppendDeltaRegionHeader(dst []byte, off, length int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(off))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(length))
	return dst
}

// DeltaRegion is one contiguous dirty run of the body.
type DeltaRegion struct {
	Off   int
	Bytes []byte // aliases the frame buffer after parsing
}

// DeltaFrame is a parsed patch frame. Region byte slices alias the
// input buffer; the frame is valid only as long as that buffer is.
type DeltaFrame struct {
	TID       uint64
	BaseEpoch uint64
	NewEpoch  uint64
	BodyLen   int
	BodyCRC   uint32
	Regions   []DeltaRegion
}

// ParseDeltaFrame parses and strictly validates a patch frame into f,
// reusing f.Regions' capacity. Every structural violation — bad magic,
// short frame, region count/body length over the caps, regions out of
// order, overlapping, empty, out of bounds, or trailing garbage —
// returns an error wrapping ErrDeltaResync so the server's failure
// path is uniform.
func ParseDeltaFrame(f *DeltaFrame, b []byte) error {
	*f = DeltaFrame{Regions: f.Regions[:0]}
	if len(b) < DeltaHeaderLen {
		return fmt.Errorf("wire: delta frame short header (%d bytes): %w", len(b), ErrDeltaResync)
	}
	if [4]byte(b[0:4]) != deltaMagic {
		return fmt.Errorf("wire: delta frame bad magic: %w", ErrDeltaResync)
	}
	f.TID = binary.LittleEndian.Uint64(b[4:12])
	f.BaseEpoch = binary.LittleEndian.Uint64(b[12:20])
	f.NewEpoch = binary.LittleEndian.Uint64(b[20:28])
	bodyLen := binary.LittleEndian.Uint32(b[28:32])
	f.BodyCRC = binary.LittleEndian.Uint32(b[32:36])
	regions := binary.LittleEndian.Uint32(b[36:40])
	if bodyLen > MaxDeltaBodyLen {
		return fmt.Errorf("wire: delta frame body length %d over cap: %w", bodyLen, ErrDeltaResync)
	}
	if regions > MaxDeltaRegions {
		return fmt.Errorf("wire: delta frame region count %d over cap: %w", regions, ErrDeltaResync)
	}
	f.BodyLen = int(bodyLen)
	p := b[DeltaHeaderLen:]
	prevEnd := 0
	for i := uint32(0); i < regions; i++ {
		if len(p) < DeltaRegionHeaderLen {
			return fmt.Errorf("wire: delta frame short region header: %w", ErrDeltaResync)
		}
		off := int(binary.LittleEndian.Uint32(p[0:4]))
		n := int(binary.LittleEndian.Uint32(p[4:8]))
		p = p[DeltaRegionHeaderLen:]
		if n == 0 {
			return fmt.Errorf("wire: delta frame empty region: %w", ErrDeltaResync)
		}
		if off < prevEnd {
			return fmt.Errorf("wire: delta frame region out of order at %d: %w", off, ErrDeltaResync)
		}
		if n > f.BodyLen || off > f.BodyLen-n {
			return fmt.Errorf("wire: delta frame region [%d,%d) out of bounds: %w", off, off+n, ErrDeltaResync)
		}
		if len(p) < n {
			return fmt.Errorf("wire: delta frame short region bytes: %w", ErrDeltaResync)
		}
		f.Regions = append(f.Regions, DeltaRegion{Off: off, Bytes: p[:n:n]})
		p = p[n:]
		prevEnd = off + n
	}
	if len(p) != 0 {
		return fmt.Errorf("wire: delta frame %d trailing bytes: %w", len(p), ErrDeltaResync)
	}
	return nil
}

// Apply patches the frame's regions into base in place and verifies the
// result against the frame's CRC. The base must already be exactly
// BodyLen bytes (delta frames never resize the body — a size change is
// structurally ineligible on the encoder side). The bytes the regions
// overwrite are appended to old, region after region, and the extended
// slice is returned: with them a decoder can tell what each region
// changed. On a checksum mismatch base is restored from them before Apply
// returns, so a refused frame leaves base as it found it.
func (f *DeltaFrame) Apply(base, old []byte) ([]byte, error) {
	if len(base) != f.BodyLen {
		return old, fmt.Errorf("wire: delta base is %d bytes, frame wants %d: %w", len(base), f.BodyLen, ErrDeltaResync)
	}
	mark := len(old)
	for i := range f.Regions {
		r := &f.Regions[i]
		old = append(old, base[r.Off:r.Off+len(r.Bytes)]...)
		copy(base[r.Off:], r.Bytes)
	}
	if crc := DeltaCRC(base); crc != f.BodyCRC {
		saved := old[mark:]
		for i := range f.Regions {
			r := &f.Regions[i]
			saved = saved[copy(base[r.Off:r.Off+len(r.Bytes)], saved):]
		}
		return old, fmt.Errorf("wire: delta body checksum %08x != frame %08x: %w", crc, f.BodyCRC, ErrDeltaResync)
	}
	return old, nil
}

// ---- X-BSoap-Delta header values ----
//
// The negotiation rides a single request/response header:
//
//	request  "sync=<tid>.<epoch>"  full body; server may store it as the
//	                               delta base for <tid> at <epoch>
//	request  "patch"               body is a patch frame, not XML
//	response "ack=<tid>.<epoch>"   server stored the base; the client
//	                               may patch this template from now on
//	response "resync"              (with status 409) patch rejected;
//	                               client clears sync state and resends
//	                               the full body
//
// tid and epoch are lowercase hex with no 0x prefix.

// DeltaHeader is the canonical header name; the transport's parser
// lower-cases incoming header keys, so lookups use DeltaHeaderKey.
const (
	DeltaHeader    = "X-BSoap-Delta"
	DeltaHeaderKey = "x-bsoap-delta"

	DeltaValPatch  = "patch"
	DeltaValResync = "resync"

	deltaSyncPrefix = "sync="
	deltaAckPrefix  = "ack="
)

// AppendDeltaSync appends a "sync=<tid>.<epoch>" header value to dst.
func AppendDeltaSync(dst []byte, tid, epoch uint64) []byte {
	dst = append(dst, deltaSyncPrefix...)
	return appendTidEpoch(dst, tid, epoch)
}

// AppendDeltaAck appends an "ack=<tid>.<epoch>" header value to dst.
func AppendDeltaAck(dst []byte, tid, epoch uint64) []byte {
	dst = append(dst, deltaAckPrefix...)
	return appendTidEpoch(dst, tid, epoch)
}

func appendTidEpoch(dst []byte, tid, epoch uint64) []byte {
	dst = appendHex(dst, tid)
	dst = append(dst, '.')
	return appendHex(dst, epoch)
}

const hexDigits = "0123456789abcdef"

// appendHex appends v as minimal lowercase hex (no 0x, "0" for zero).
func appendHex(dst []byte, v uint64) []byte {
	var buf [16]byte
	i := len(buf)
	for {
		i--
		buf[i] = hexDigits[v&0xf]
		v >>= 4
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// ParseDeltaSync parses a "sync=<tid>.<epoch>" header value.
func ParseDeltaSync(v string) (tid, epoch uint64, ok bool) {
	return parseTidEpoch(v, deltaSyncPrefix)
}

// ParseDeltaAck parses an "ack=<tid>.<epoch>" header value.
func ParseDeltaAck(v string) (tid, epoch uint64, ok bool) {
	return parseTidEpoch(v, deltaAckPrefix)
}

func parseTidEpoch(v, prefix string) (tid, epoch uint64, ok bool) {
	if len(v) <= len(prefix) || v[:len(prefix)] != prefix {
		return 0, 0, false
	}
	v = v[len(prefix):]
	dot := -1
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			dot = i
			break
		}
	}
	if dot < 0 {
		return 0, 0, false
	}
	tid, ok = parseHexU64(v[:dot])
	if !ok {
		return 0, 0, false
	}
	epoch, ok = parseHexU64(v[dot+1:])
	if !ok {
		return 0, 0, false
	}
	return tid, epoch, true
}

// parseHexU64 parses 1..16 lowercase-or-uppercase hex digits.
func parseHexU64(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return v, true
}
