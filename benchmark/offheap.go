package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arena hands out slices that live outside the Go heap, for the
// benchmark's own bulk records (latency samples, trace logs). The
// garbage collector paces itself by the live heap: tens of megabytes of
// records would make it run a fraction as often as it does for the
// program under test alone — sparse_delta_link, which allocates 34 KB a
// call, ran 13 % faster in the traced pass than in the untraced one on
// the strength of the tracer's logs. Kept off the heap, the records
// leave the collector exactly as busy as the client and server keep it.
type arena struct{ maps [][]byte }

// offHeap returns an empty slice with room for n values of T, which
// must hold no pointers. Pages are committed as they are touched.
// Appending beyond n moves the slice to the heap: still correct, no
// longer invisible to the collector.
func offHeap[T any](a *arena, n int) []T {
	var zero T
	mem, err := syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("benchmark: mmap of %d records: %v", n, err))
	}
	a.maps = append(a.maps, mem)
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]
}

// release unmaps everything the arena handed out; no slice from it may
// be used afterwards.
func (a *arena) release() {
	for _, mem := range a.maps {
		_ = syscall.Munmap(mem)
	}
	a.maps = nil
}
