// Package bsoap is a Go implementation of differential serialization
// for SOAP, reproducing "Differential Serialization for Optimized SOAP
// Performance" (Abu-Ghazaleh, Lewis, Govindaraju — HPDC 2004).
//
// Rather than re-serializing every outgoing SOAP message from scratch,
// a bsoap Stub saves the serialized form of the last message of each
// structure as a template, tracks which in-memory values have changed
// through the message's Set accessors, and on the next call rewrites
// only the changed bytes — or resends the template verbatim when
// nothing changed at all.
//
// # Quick start
//
//	msg := bsoap.NewMessage("urn:demo", "sendVector")
//	vec := msg.AddDoubleArray("values", 1000)
//	// ... vec.Set(i, v) ...
//
//	sender, _ := bsoap.Dial("localhost:8080", bsoap.SenderOptions{})
//	stub := bsoap.NewStub(bsoap.Config{}, sender)
//
//	stub.Call(msg)      // first-time send: full serialization
//	vec.Set(7, 3.25)
//	stub.Call(msg)      // rewrites exactly one value in the template
//	stub.Call(msg)      // message content match: zero serialization
//
// # Stuffing, chunking, stealing, overlaying
//
// Config selects the paper's supporting techniques: WidthPolicy stuffs
// fields with whitespace so growing values never shift
// (bsoap.MaxWidth), chunk.Config bounds the cost of shifts that do
// happen, EnableStealing consumes neighbour padding before shifting,
// and Stub.CallOverlay streams huge arrays through a single resident
// chunk.
//
// # Server side
//
// The serverpool, soapdec and diffdeser internal packages implement the
// receiving end — one endpoint, serverpool.Runtime, with a private
// deserializer and response stub per connection — including the paper's
// future-work differential deserialization; see the examples directory
// for complete services.
package bsoap

import (
	"bsoap/internal/core"
	"bsoap/internal/pool"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Core engine types, re-exported.
type (
	// Config tunes a Stub; see core.Config.
	Config = core.Config
	// WidthPolicy is the stuffing policy (field widths per scalar kind).
	WidthPolicy = core.WidthPolicy
	// Stub is a differential-serialization client endpoint.
	Stub = core.Stub
	// CallInfo describes how one call was served.
	CallInfo = core.CallInfo
	// Stats accumulates per-stub counters.
	Stats = core.Stats
	// MatchKind classifies a call (content match, structural match, …).
	MatchKind = core.MatchKind
	// Sink consumes complete serialized messages.
	Sink = core.Sink
	// StreamSink consumes overlay-streamed messages.
	StreamSink = core.StreamSink
)

// Message model types, re-exported.
type (
	// Message is an in-memory RPC message with dirty-tracked values.
	Message = wire.Message
	// Type describes a wire type.
	Type = wire.Type
	// Field is a struct member.
	Field = wire.Field
	// IntRef, DoubleRef, StringRef, BoolRef, StructRef and the array
	// refs are the get/set accessors that keep dirty bits accurate.
	IntRef         = wire.IntRef
	DoubleRef      = wire.DoubleRef
	StringRef      = wire.StringRef
	BoolRef        = wire.BoolRef
	StructRef      = wire.StructRef
	IntArrayRef    = wire.IntArrayRef
	DoubleArrayRef = wire.DoubleArrayRef
	StringArrayRef = wire.StringArrayRef
	StructArrayRef = wire.StructArrayRef
)

// Transport types, re-exported.
type (
	// Sender frames messages as HTTP POSTs over one connection.
	Sender = transport.Sender
	// SenderOptions configure a Sender.
	SenderOptions = transport.SenderOptions
	// DiscardSink consumes messages in-process (benchmarks).
	DiscardSink = transport.DiscardSink
)

// Concurrent client runtime, re-exported.
type (
	// Pool is a concurrent differential-serialization client: many
	// goroutines share pooled connections, a sharded template store
	// (template reuse survives across workers) and a metrics registry.
	Pool = pool.Pool
	// PoolOptions configure a Pool.
	PoolOptions = pool.Options
	// PoolStats is a snapshot of the pool's metrics registry.
	PoolStats = pool.Stats
	// PoolMetrics is the live registry (JSON endpoint, http.Handler).
	PoolMetrics = pool.Metrics
	// Future is the completion handle of any pool call that does not
	// wait for its response (Pool.CallAsync works on every pool;
	// PoolOptions.PipelineDepth bounds how many ride one connection).
	Future = pool.Future
)

// Match kinds, re-exported.
const (
	FirstTime         = core.FirstTime
	ContentMatch      = core.ContentMatch
	StructuralMatch   = core.StructuralMatch
	PartialMatch      = core.PartialMatch
	FullSerialization = core.FullSerialization
)

// MaxWidth selects a type's maximum lexical width in a WidthPolicy.
const MaxWidth = core.MaxWidth

// Scalar types.
var (
	TInt    = wire.TInt
	TDouble = wire.TDouble
	TString = wire.TString
	TBool   = wire.TBool
)

// NewMessage creates an empty message for the given operation.
func NewMessage(namespace, operation string) *Message {
	return wire.NewMessage(namespace, operation)
}

// StructOf builds a struct type from fields.
func StructOf(name string, fields ...Field) *Type { return wire.StructOf(name, fields...) }

// ArrayOf builds an array type.
func ArrayOf(elem *Type) *Type { return wire.ArrayOf(elem) }

// NewStub creates a differential-serialization stub sending through
// sink.
func NewStub(cfg Config, sink Sink) *Stub { return core.NewStub(cfg, sink) }

// Dial connects to a SOAP endpoint over TCP with the paper's socket
// options and returns a Sender usable as the stub's Sink (and, for
// overlay, StreamSink).
func Dial(addr string, opts SenderOptions) (*Sender, error) { return transport.Dial(addr, opts) }

// NewDiscardSink returns an in-process sink for benchmarking pure
// serialization-side cost.
func NewDiscardSink() *DiscardSink { return transport.NewDiscardSink() }

// NewPool builds a concurrent client runtime: a bounded pool of lazily
// dialed connections (with automatic redial on failure) sharing a
// sharded template store, so calls from any number of goroutines keep
// the differential-serialization benefit of warm templates.
func NewPool(opts PoolOptions) (*Pool, error) { return pool.New(opts) }
