package soapdec

import (
	"strconv"
	"strings"
	"syscall"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/wire"
)

// TestDecodeRefusesUnaddressableBody decodes a body one page longer than
// a LeafRange offset addresses: a valid envelope followed by zeros, in
// address space mapped without backing, so only the page the envelope
// is copied into is ever touched. Recording ranges over it must fail
// with an error, never with offsets truncated to 32 bits.
func TestDecodeRefusesUnaddressableBody(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a body past 4 GiB needs a 64-bit address space")
	}
	shift := 32
	n := 1<<shift + 4096
	body, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot map %d bytes of address space: %v", n, err)
	}
	defer syscall.Munmap(body)

	m := wire.NewMessage("urn:dec", "big")
	m.AddDoubleArray("v", 4)
	doc := new(baseline.GSOAPLike).Serialize(m)
	copy(body, doc)
	schema := schemaFor(m)
	lookup := func(string) (*Schema, bool) { return schema, true }
	if _, err := Decode(body[:len(doc)], lookup, true); err != nil {
		t.Fatalf("the envelope alone: %v", err)
	}
	if _, err := Decode(body, lookup, true); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("a %d-byte body: err = %v, want a refusal", n, err)
	}
}
