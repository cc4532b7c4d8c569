package mcs

import (
	"net"
	"strings"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/serverpool"
	"bsoap/internal/wire"
)

var testSchema = []string{"owner", "experiment", "format"}

func TestAddGetDelete(t *testing.T) {
	c := NewCatalog(testSchema)
	if err := c.add("file1", []string{"alice", "climate", "hdf5"}); err != nil {
		t.Fatal(err)
	}
	vals, ok := c.Get("file1")
	if !ok || vals[0] != "alice" || vals[2] != "hdf5" {
		t.Fatalf("Get: %v %v", vals, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.remove("file1") {
		t.Fatal("Delete failed")
	}
	if c.remove("file1") {
		t.Fatal("double delete succeeded")
	}
	if _, ok := c.Get("file1"); ok {
		t.Fatal("deleted entry still present")
	}
}

func TestAddValidatesArity(t *testing.T) {
	c := NewCatalog(testSchema)
	if err := c.add("f", []string{"too", "few"}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestQueryByAttribute(t *testing.T) {
	c := NewCatalog(testSchema)
	c.add("f1", []string{"alice", "climate", "hdf5"})
	c.add("f2", []string{"bob", "climate", "netcdf"})
	c.add("f3", []string{"alice", "fusion", "hdf5"})

	names, err := c.Query("experiment", "climate")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "f1" || names[1] != "f2" {
		t.Fatalf("query: %v", names)
	}
	names, _ = c.Query("owner", "alice")
	if len(names) != 2 {
		t.Fatalf("owner query: %v", names)
	}
	if _, err := c.Query("nosuch", "x"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	names, _ = c.Query("owner", "nobody")
	if len(names) != 0 {
		t.Fatalf("empty query: %v", names)
	}
}

func TestReplaceReindexes(t *testing.T) {
	c := NewCatalog(testSchema)
	c.add("f1", []string{"alice", "climate", "hdf5"})
	c.add("f1", []string{"bob", "climate", "hdf5"}) // replace
	if names, _ := c.Query("owner", "alice"); len(names) != 0 {
		t.Fatalf("stale index: %v", names)
	}
	if names, _ := c.Query("owner", "bob"); len(names) != 1 {
		t.Fatalf("new index: %v", names)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestDeleteCleansIndexes(t *testing.T) {
	c := NewCatalog(testSchema)
	c.add("f1", []string{"alice", "climate", "hdf5"})
	c.remove("f1")
	if names, _ := c.Query("format", "hdf5"); len(names) != 0 {
		t.Fatalf("index survived delete: %v", names)
	}
}

// --- SOAP binding ------------------------------------------------------

type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

// call renders m with a differential stub and dispatches it.
func call(t *testing.T, ep *serverpool.Runtime, stub *core.Stub, sink *captureSink, m *wire.Message) []byte {
	t.Helper()
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	resp, err := ep.Handle(1, "", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSOAPBindingEndToEnd(t *testing.T) {
	c := NewCatalog(testSchema)
	ep := serverpool.New(serverpool.Options{})
	BindRuntime(ep, c)

	sink := &captureSink{}
	stub := core.NewStub(core.Config{}, sink)

	// Add two files through the fixed-schema add message, reusing one
	// message object (the paper's repeated-similar-requests pattern).
	addMsg := wire.NewMessage(Namespace, "mcsAdd")
	name := addMsg.AddString("logicalName", "")
	vals := addMsg.AddStringArray("values", len(testSchema))

	name.Set("exp-run-001.h5")
	vals.Set(0, "alice")
	vals.Set(1, "climate")
	vals.Set(2, "hdf5")
	resp := call(t, ep, stub, sink, addMsg)
	if !strings.Contains(string(resp), ">true<") {
		t.Fatalf("add response: %s", resp)
	}

	name.Set("exp-run-002.h5")
	vals.Set(0, "bob00")
	resp = call(t, ep, stub, sink, addMsg)
	if !strings.Contains(string(resp), ">true<") {
		t.Fatalf("second add response: %s", resp)
	}
	if c.Len() != 2 {
		t.Fatalf("catalog has %d entries", c.Len())
	}

	// Query by experiment.
	qMsg := wire.NewMessage(Namespace, "mcsQuery")
	attr := qMsg.AddString("attribute", "experiment")
	qMsg.AddString("value", "climate")
	resp = call(t, ep, stub, sink, qMsg)
	if !strings.Contains(string(resp), ">2<") ||
		!strings.Contains(string(resp), "exp-run-001.h5") {
		t.Fatalf("query response: %s", resp)
	}
	_ = attr

	// Delete and re-query.
	dMsg := wire.NewMessage(Namespace, "mcsDelete")
	dMsg.AddString("logicalName", "exp-run-001.h5")
	resp = call(t, ep, stub, sink, dMsg)
	if !strings.Contains(string(resp), ">true<") {
		t.Fatalf("delete response: %s", resp)
	}
	resp = call(t, ep, stub, sink, qMsg)
	if !strings.Contains(string(resp), ">1<") {
		t.Fatalf("post-delete query: %s", resp)
	}
}

func TestResponsePageIsFixedShape(t *testing.T) {
	c := NewCatalog(testSchema)
	ep := serverpool.New(serverpool.Options{})
	BindRuntime(ep, c)
	sink := &captureSink{}
	stub := core.NewStub(core.Config{}, sink)

	qMsg := wire.NewMessage(Namespace, "mcsQuery")
	qMsg.AddString("attribute", "owner")
	val := qMsg.AddString("value", "alice")

	r1 := append([]byte(nil), call(t, ep, stub, sink, qMsg)...)
	val.Set("bob") // different query, same shape
	r2 := call(t, ep, stub, sink, qMsg)
	if len(r1) != len(r2) {
		t.Fatalf("response sizes differ: %d vs %d", len(r1), len(r2))
	}
	// The server's response stub must be reusing its template.
	rs := ep.ResponseStats()
	if rs.FirstTimeSends != 1 {
		t.Fatalf("response stats: %+v", rs)
	}
}

// Get returns the attribute values of name. The returned slice is the
// catalog's storage and must not be modified.
func (c *Catalog) Get(name string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.byName[name]
	return v, ok
}
