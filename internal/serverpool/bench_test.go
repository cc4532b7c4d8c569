package serverpool

import (
	"sync/atomic"
	"testing"
)

// The scaling benchmark: 8 concurrent clients, each with its own stable
// request shape, against (a) a locked endpoint — the runtime fed one
// connection id, so one replica's mutex, deserializer and response stub
// serve everyone — and (b) the sharded runtime with a replica per
// connection. The shared decoder holds at most
// reg.TemplatesPerOp templates per operation, so eight
// distinct shapes thrash it into constant full parses on top of the
// dispatch lock convoy; per-connection replicas keep every client on
// the differential fast path with no shared lock.

const benchClients = 8

func benchBodies(b *testing.B) [][]byte {
	bodies := make([][]byte, benchClients)
	for i := range bodies {
		c := newClient(64 + 8*i) // distinct stable shape per client
		bodies[i] = c.body(b)
	}
	return bodies
}

func BenchmarkLockedEndpoint8Clients(b *testing.B) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true})
	bodies := benchBodies(b)
	var next atomic.Int64
	b.SetParallelism(benchClients)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % benchClients
		body := bodies[id]
		for pb.Next() {
			if _, err := rt.Handle(1, "", body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkShardedRuntime8Clients(b *testing.B) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true})
	bodies := benchBodies(b)
	var next atomic.Int64
	b.SetParallelism(benchClients)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % benchClients
		body := bodies[id]
		connID := uint64(id + 1)
		for pb.Next() {
			if _, err := rt.Handle(connID, "", body); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := rt.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.DiffDecodes)/float64(st.Requests)*100, "fastpath%")
	}
}
