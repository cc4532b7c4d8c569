#!/bin/sh
# check.sh — the repo's full verification gate, run by CI and before
# every commit: formatting, vet, build, and the test suite under the
# race detector (the concurrent pool runtime requires -race to count).
set -eu
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Export census: every exported name under internal/ that no other
# package's non-test code uses is listed, with a reason, in
# testdata/census.txt. Run on its own first, so a new unreferenced name
# reads as a census failure rather than as one more red test below.
census() {
    go test -count=1 -run '^TestExportCensus$' . || {
        echo "export census: unexport or delete the names above, or list them in testdata/census.txt with a reason" >&2
        exit 1
    }
    echo "check.sh: export census ok"
}
census

go test -race ./...

# The benchmark is a module of its own, so nothing above compiles it: a
# signature it calls changing under it would first show when the
# benchmark pipeline builds it.
go -C benchmark vet ./...
go -C benchmark test ./...

# Poison leg: the membufpoison tag overwrites released arenas with a
# sentinel byte, so an eviction path that diffs or decodes against
# released template bytes corrupts its output visibly in the budget
# tests instead of passing on a lucky stale read. core and chunk ride
# along because a template build releases an arena mid-build, when its
# tail chunk moves into the arena that fits it.
go test -tags membufpoison ./internal/membuf ./internal/replica \
    ./internal/pool ./internal/serverpool ./internal/core ./internal/chunk .

# Float-kernel guard. The power-of-ten table both kernels read is
# committed, not built at start-up: regenerating it must reproduce the
# committed file byte for byte (TestPow10Table checks the entries
# themselves, independently of the generator). Which strconv routines
# the value path may call is a case of arch_test.go.
kernel_guard() {
    go generate ./internal/xsdlex
    git diff --exit-code -- internal/xsdlex/pow10tab.go || {
        echo "kernel guard: go generate changed the committed power-of-ten table" >&2
        exit 1
    }
    echo "check.sh: float-kernel guard ok"
}
kernel_guard

# One-path guard: the client runtime has one call loop and the transport
# one way to annotate a request and one way to read its answer. Each of
# these grew a copy once (a second retry loop for CallAsync, the delta
# header rendered in four places, the resync answer classified in two)
# and the copies drifted; a second occurrence of any marker below is a
# second copy coming back. The server side likewise: one endpoint
# (serverpool.Runtime) decodes differentially at one call site for
# requests that name no template and at one for those that do, one
# keeper of patch bases parses and applies frames under one cap, and the
# patch base is the decode template — the single-mutex endpoint in
# internal/server, the recorder's private copy of the delta protocol and
# the second copy of every synced body are gone and stay gone. A template
# is sized to its message at one place, the end of its build, so client
# templates and server response stubs share one fit.
one_path_guard() {
    count() { # count <pattern> <dir> [grep options]: matching non-comment lines of non-test code
        pattern=$1 dir=$2
        shift 2
        # grep exits 1 when nothing matches and 2 when it cannot search
        # (a malformed pattern): a guard that cannot search must not pass.
        hits=$(grep -rnE "$pattern" --include='*.go' --exclude='*_test.go' "$@" "$dir") || [ $? -eq 1 ] || {
            echo "one-path guard: grep failed on '$pattern' in $dir" >&2
            exit 1
        }
        printf '%s\n' "$hits" | grep -vcE '^$|^[^:]+:[0-9]+:[[:space:]]*//' || true
    }
    expect() { # expect <want> <what> <pattern> <dir> [grep options]
        want=$1 what=$2
        shift 2
        # A guard on a path that is gone would count 0 and pass unseen.
        if [ ! -e "$2" ]; then
            echo "one-path guard: $what: $2 does not exist" >&2
            exit 1
        fi
        n=$(count "$@")
        if [ "$n" != "$want" ]; then
            echo "one-path guard: $what: $n occurrences in $2, want exactly $want:" >&2
            grep -rnE "$1" --include='*.go' --exclude='*_test.go' "$2" >&2 || true
            exit 1
        fi
    }
    check() { expect 1 "$@"; }
    absent() { expect 0 "$@"; }
    check "delta request header rendered" 'append\(.*deltaHeaderPrefix' internal/transport
    check "resync answer classified" '== *wire\.DeltaValResync' internal/transport
    check "engine invoked from the pool" 'stub\.CallHeld\(' internal/pool
    check "request decoded differentially" 'differ\.Decode\(' internal
    check "request decoded by template id" '\.DecodeRegions\(' internal
    check "patch frame parsed outside internal/wire" 'ParseDeltaFrame\(' internal --exclude-dir=wire
    check "patch frame applied outside internal/wire" '\.Apply\(' internal --exclude-dir=wire
    check "cap on patch bases declared" 'maxDeltaBases += [0-9]' internal
    check "template tail fitted" '\.FitTail\(' internal/core
    # A stub's templates are its own, confined with the stub: no lock in
    # the engine, no store shared between stubs, no second wire encoding
    # beside delta frames (ablation_test.go keeps gzip as a contrast).
    absent "mutex in the engine" 'sync\.(RW)?Mutex' internal/core
    absent "template store shared between stubs" 'NewStubWithStore' .
    absent "gzip outside the ablation" '"compress/gzip"' .
    # A reply is read by the sender that sent the request (Pending.Wait,
    # which a bare ExpectResponse send is at depth 1), not by a second
    # round-trip path beside it.
    absent "round-trip send beside Submit" 'Roundtrip\(' .
    absent "round-trip client package" '"bsoap/internal/rpc"' .
    # A response's header section is rendered at one place, and the
    # Server writes every answer from the request's own buffer in one
    # Write; the writer that allocated a header per 409 and split the 500
    # stays gone.
    check "response status line rendered" '"HTTP/1\.1 "' internal/transport
    absent "allocating response writer" 'writeResponseExtra' .
    # The diff walk finds a changed leaf by seeking forward from the last
    # one hit, not by a binary search of the whole range table. Socket
    # buffers are sized per request in flight from one constant: serial
    # connections keep the paper's 32 KiB, pipelines and read-ahead
    # connections get a multiple of it.
    absent "whole-table range search in the diff walk" 'sort\.Search\(len\(t\.ranges\)' internal/diffdeser
    check "per-request socket buffer declared" 'sockBufPerRequest += ' internal/transport
    absent "socket buffer set from a literal" 'Set(Read|Write)Buffer\(32 \* 1024\)' internal/transport
    # One envelope grammar: soapenv compiles the operation and each
    # parameter into steps, and every writer runs them with its own leaf
    # writer — the one from-scratch renderer (shared by the diff-off mode
    # and the gSOAP-like baseline), the template build, the overlay
    # layout and the multi-ref encoder. No package outside soapenv renders
    # a message itself, compiles steps or walks elements into markup; the
    # XSOAP-like baseline's element tree is the one documented exception.
    check "single-pass renderer defined" '^func \(c \*Compiler\) AppendMessage\(' internal
    absent "single-pass renderer outside soapenv" 'b = append\(b, soapenv\.EnvelopeStart' internal --exclude-dir=soapenv
    absent "step compiler outside soapenv" 'func appendSteps|type emitStep' internal/core
    absent "element walk outside soapenv" 'func \(e \*Encoder\) (param|value)' internal/multiref
    # One of each in the engine besides: one overlay loop, which fills
    # and streams each portion through one resident chunk, with no
    # pipelined variant or writer goroutine beside it; no footprint
    # generation counter (whoever holds a template charges its footprint,
    # and core.Stub has no Footprint method, a case of arch_test.go); and
    # one steal scan distance, a constant.
    check "overlay stream begun" '\.BeginStream\(\)' internal/core
    absent "pipelined overlay beside the one loop" 'CallOverlayPipelined|pipeWriter' internal/core
    absent "footprint generation beside the stub's cache" 'FootprintGen' .
    absent "steal scan option" 'StealScan' internal/core
    # One template level in the pool: the replica registry is the pool's
    # template store, an engine holds its template (no stub of its own),
    # and a connection slot holds the one stub that serializes its calls,
    # a refused call included (no diff-off stub beside it: core.Config has
    # no DisableDiff field, a case of arch_test.go). One constant,
    # replica.TemplatesPerOp, caps templates per operation on both sides,
    # and a chunk splits at twice its size; a template holds no copy of
    # its stub's configuration.
    absent "stub built per engine" 'core\.NewStub' internal/pool/store.go
    absent "per-operation template cap option" 'MaxTemplatesPerOp' .
    absent "split threshold option" 'SplitThreshold' internal/chunk
    absent "configuration copied into each template" '^[[:space:]]+cfg[[:space:]]+Config' internal/core/template.go
    # The client reads a response one way, at one place (readOldest):
    # whoever needs it reads it (Pending.Wait — a bare ExpectResponse send
    # included — or a Submit at depth). A client connection is one
    # Sender: no pipeline type beside it, no inline read beside the
    # queue, no reader goroutine, no per-call wake-up channel, no channel
    # on a future (cases of arch_test.go).
    check "client response read" 'ReadResponseInto\(s\.br' internal/transport
    # One client connection discipline: every pool slot is one dialed
    # Sender (a Call is depth 1 of its queue), dialed only
    # through SenderOptions.Dialer, and every request is HTTP/1.1 — no
    # second pool mode, no dial that hands the pool a sink, no second
    # framing, no in-process loadgen.
    absent "second HTTP framing" 'transport\.HTTP1[01]|Keep-Alive' .
    absent "serial pool mode beside the pipeline" 'errNotPipelined|PipelineDepth > 0' internal/pool
    absent "pool dial returning a sink" 'func\(\) \(core\.Sink' internal/pool
    absent "in-process loadgen" 'inprocess' cmd/bsoap-loadgen
    # A server replica is keyed by its connection alone, and the client
    # template store has one shard count, a constant: no host-keyed
    # replicas (they made one host's connections contend one replica and
    # share one patch-base keeper) and no shard option.
    absent "replicas keyed by remote host" 'AffinityClient|client-affine' internal
    absent "replicas keyed by remote host" 'AffinityClient|client-affine' cmd
    absent "template-store shard option" '^[[:space:]]*Shards[[:space:]]' internal/pool/pool.go
    # Template memory is charged at what the layouts hold (unsafe.Sizeof
    # of a 16-byte DUT entry and an 8-byte leaf range), not at constants.
    absent "flat per-entry charge" 'entrySize = 64' internal/core
    absent "flat per-range charge" 'perRange = 16' internal/diffdeser
    # Doubles print through a converter value each serializer holds. A
    # process-global converter is an indirect call that escape analysis
    # cannot see through: the from-scratch renderer's conversion scratch
    # moved to the heap, one allocation per double.
    absent "process-global double converter" 'SetDoubleConverter|doubleConverter =' .
    # Every counter is declared once, as a row of its registry's table,
    # and both pages are written by walking the table (promtext.Rows).
    # What a registry still writes line by line is what no row can hold:
    # client — saved bytes, delta bytes saved, the evictions family (lru
    # is derived), the template source's refusals and two byte gauges,
    # faults injected, futures pending; server — the full-parse total, the
    # evictions family and the two byte gauges. The server runtime counts
    # only into the registry.
    expect 9 "exposition lines written beside the table" '\.(Counter|Gauge|CounterWithLabel)\(|promtext\.Rows\(' internal/pool
    expect 5 "exposition lines written beside the table" '\.(Counter|Gauge|CounterWithLabel)\(|promtext\.Rows\(' internal/transport
    absent "counter atomic in the server runtime" 'atomic\.Int64' internal/serverpool/serverpool.go
    # The WSDL control plane runs on the standard library: encoding/xml
    # parses a description and net/http fetches it, so the hand-rolled
    # XML writer stays gone, the WSDL package walks no xmlparse tokens,
    # and the transport writes requests only through the Sender.
    absent "hand-rolled XML writer" '"bsoap/internal/xmlwr"' .
    absent "xmlparse walk in the WSDL package" 'xmlparse' internal/wsdl
    absent "hand-written request line beside the Sender" '"GET ' internal/transport
    heap=$(go build -gcflags=-m ./internal/soapenv 2>&1 | grep 'moved to heap' || true)
    if [ -n "$heap" ]; then
        echo "one-path guard: the from-scratch renderer moves a variable to the heap:" >&2
        echo "$heap" >&2
        exit 1
    fi
    if [ -d internal/server ]; then
        echo "one-path guard: internal/server is back; serverpool.Runtime is the endpoint" >&2
        exit 1
    fi
    echo "check.sh: one-path guard ok"
}
one_path_guard

# Sticky guard: the client store binds a message to the replica that
# holds its bytes, exactly (store.go, acquire). What that replaced — a
# replica picked by hashing the message's heap address, and a forced
# MarkAllDirty for a message found on a replica it had bounced away
# from — must not come back beside it.
sticky_guard() {
    hits=$(grep -rnE 'reflect|Affinity64\(|MarkAllDirty\(' \
        --include='*.go' --exclude='*_test.go' internal/pool \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
    if [ -n "$hits" ]; then
        echo "sticky guard: pointer-hash affinity or bounce handling in internal/pool:" >&2
        echo "$hits" >&2
        exit 1
    fi
    echo "check.sh: sticky guard ok"
}
sticky_guard

# One-LRU guard: the unified replica registry owns the repo's only
# recency list. Nothing outside internal/replica may import
# container/list or define an LRU type — a second bespoke copy creeping
# back in is exactly the drift the unified runtime removed.
lru_guard() {
    offenders=$(grep -rl '"container/list"' --include='*.go' . \
        | grep -v '^\./internal/replica/' || true)
    if [ -n "$offenders" ]; then
        echo "one-LRU guard: container/list imported outside internal/replica:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rliE 'type +[a-z0-9_]*lru[a-z0-9_]* +(struct|interface)' --include='*.go' . \
        | grep -v '^\./internal/replica/' || true)
    if [ -n "$offenders" ]; then
        echo "one-LRU guard: LRU type defined outside internal/replica:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    echo "check.sh: one-LRU guard ok"
}
lru_guard

# Allocation gates: AllocsPerRun is unreliable under the race detector
# (instrumentation allocates), so the steady-state zero-alloc contract
# gets its own plain run — twice: once with the flight recorder off and
# once recording every call (BSOAP_TRACE=1), since "recording never
# allocates" is the tracer's core claim. TestColdPathAllocs rides both
# runs: the cold path's bound is not zero, but it is per container and
# never per leaf, traced or not. The bench smoke (-benchtime=100x)
# confirms the figure benchmarks still execute and report allocs without
# paying for a full sweep.
go test -run 'TestSteadyState|TestColdPathAllocs' .
BSOAP_TRACE=1 go test -count=1 -run 'TestSteadyState|TestColdPathAllocs' .
# One retained body per template, read off the gauge, the heap and the
# re-lex count, and decode state bounded per operation under template-id
# churn, with the flight recorder on too (the -race run above covers the
# plain leg).
BSOAP_TRACE=1 go test -count=1 \
    -run 'TestDeltaSameShapeReparsesOnlyChanges|TestDeltaHoldsOneBodyPerTemplate|TestDeltaBoundsDecodeStateUnderChurn' \
    ./internal/serverpool
# Propagation cost: the span header write and the slow-ring observe
# must be allocation-free too (their AllocsPerRun tests skip under
# -race, so they need this plain leg).
go test -run 'AllocFree|IsFree' ./internal/transport ./internal/trace
go test -run '^$' -bench 'Fig0[12]' -benchtime=100x -benchmem .

# Observability smoke: a real loadgen run against a bench server with
# the flight recorder on, then scrape both debug ports — /metrics must
# parse as valid Prometheus exposition (bsoap-inspect validates it) and
# /debug/trace must contain at least one complete call span.
obs_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29999 \
        -metrics 127.0.0.1:28124 -quiet &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29999 -workers 2 -duration 4s \
        -trace -metrics 127.0.0.1:28123 -max-err 0 &
    lg=$!
    sleep 2
    "$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28123/metrics
    "$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28124/metrics
    timeline=$("$tmp/bsoap-inspect" trace -url http://127.0.0.1:28123/debug/trace -spans 5)
    echo "$timeline" | grep -q 'start sendDoubles' || {
        echo "obs smoke: no call-start event in the trace" >&2; exit 1; }
    echo "$timeline" | grep -q 'done: ' || {
        echo "obs smoke: no completed call span in the trace" >&2; exit 1; }
    wait "$lg"
    kill "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
    rm -rf "$tmp"
    echo "check.sh: observability smoke ok"
}
obs_smoke

# Server-scaling smoke: the serverpool runtime under 8 concurrent RPC
# clients must serve with zero failed calls and keep the server-side
# differential fast path at ≥90% — loadgen scrapes the server's own
# /metrics page and enforces both.
scaling_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29998 \
        -metrics 127.0.0.1:28125 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29998 -workers 8 -duration 4s \
        -max-err 0 -server-metrics http://127.0.0.1:28125/metrics \
        -min-server-fast 90
    kill -TERM "$srv"
    wait "$srv" || { echo "scaling smoke: server exited nonzero" >&2; exit 1; }
    rm -rf "$tmp"
    echo "check.sh: server-scaling smoke ok"
}
scaling_smoke

# Drain smoke: SIGTERM mid-load must drain gracefully — the server
# exits 0 having aborted zero in-flight requests (clients racing the
# closed listener see errors; server-side cleanliness is the contract).
drain_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29997 -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29997 -workers 4 -duration 6s \
        > "$tmp/lg.log" 2>&1 &
    lg=$!
    sleep 1.5
    kill -TERM "$srv"
    wait "$srv" || { echo "drain smoke: server exited nonzero" >&2; exit 1; }
    wait "$lg" || true
    grep -q 'drain complete (0 in-flight requests aborted)' "$tmp/srv.log" || {
        echo "drain smoke: no clean-drain line in server output:" >&2
        cat "$tmp/srv.log" >&2
        exit 1
    }
    rm -rf "$tmp"
    echo "check.sh: drain smoke ok"
}
drain_smoke

# Drain stress: a clean drain answers every request that has already
# arrived, under both schedulers, while the drain's wake-up of an idle
# reader races the next request's bytes — one run proves little.
go test -count=50 -run 'Drain' ./internal/transport

# Pipeline smoke: the async call path must actually pay. One worker,
# small messages (round-trip-bound, where pipelining is the paper's
# win), depth 8 against a read-ahead server: ≥4/3 the serial calls/s,
# zero failed calls, ≥90% server fast path. (The floor was 1.5× when
# the serial sender allocated per call; the allocation-free request
# head sped the serial baseline up enough that the localhost ratio now
# lands 1.4–1.9×.) A second run repeats the
# load through a 5% fault injector with the server draining mid-run:
# errors are fine, lost futures are not (loadgen exits nonzero if any
# future neither resolves nor errors).
pipeline_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29996 -read-ahead 8 \
        -metrics 127.0.0.1:28126 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 1 -ops 8 -n 100 \
        -mix 100/0/0 -duration 3s -max-err 0 > "$tmp/serial.log"
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 1 -ops 8 -n 100 \
        -mix 100/0/0 -duration 3s -pipeline 8 -max-err 0 \
        -server-metrics http://127.0.0.1:28126/metrics -min-server-fast 90 \
        > "$tmp/piped.log"
    serial_rate=$(awk '/calls\/s/ {gsub("\\(",""); print int($3)}' "$tmp/serial.log")
    piped_rate=$(awk '/calls\/s/ {gsub("\\(",""); print int($3)}' "$tmp/piped.log")
    echo "check.sh: pipeline smoke: serial $serial_rate calls/s, depth-8 $piped_rate calls/s"
    [ "$piped_rate" -ge $((serial_rate * 4 / 3)) ] || {
        echo "pipeline smoke: depth-8 rate $piped_rate < 4/3x serial $serial_rate" >&2
        cat "$tmp/serial.log" "$tmp/piped.log" >&2
        exit 1
    }
    kill -TERM "$srv"
    wait "$srv" || { echo "pipeline smoke: server exited nonzero" >&2; exit 1; }

    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29996 -read-ahead 8 -quiet \
        > "$tmp/srv2.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 2 -ops 8 -n 100 \
        -duration 4s -pipeline 8 -chaos 0.05 -max-err 100 \
        > "$tmp/chaos.log" 2>&1 &
    lg=$!
    sleep 1.5
    kill -TERM "$srv"
    wait "$srv" || true # drain under chaos: client conns may abort mid-request
    wait "$lg" || {
        echo "pipeline chaos smoke: loadgen failed (lost futures?):" >&2
        cat "$tmp/chaos.log" >&2
        exit 1
    }
    rm -rf "$tmp"
    echo "check.sh: pipeline smoke ok"
}
pipeline_smoke

# Memory-budget smoke: both sides run under a deliberately tiny
# template budget (64 KB — a couple of entries, far under the working
# set), so budget eviction churns continuously. The contract: zero
# failed calls (-max-err 0; eviction degrades calls to first-time
# sends / full parses, never errors) and budget evictions visible on
# both /metrics pages, read back through promtext.ReadValues
# (bsoap-inspect metrics -get).
budget_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29995 \
        -metrics 127.0.0.1:28127 -max-template-bytes 65536 -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29995 -workers 4 -ops 8 -n 100 \
        -duration 4s -metrics 127.0.0.1:28128 \
        -max-template-bytes 65536 -max-err 0 > "$tmp/lg.log" 2>&1 &
    lg=$!
    sleep 2.5
    cev=$("$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28128/metrics \
        -get 'bsoap_client_template_evictions_total{reason="budget"}')
    sev=$("$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28127/metrics \
        -get 'bsoap_server_template_evictions_total{reason="budget"}')
    wait "$lg" || {
        echo "budget smoke: loadgen failed under the budget:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    kill -TERM "$srv"
    wait "$srv" || { echo "budget smoke: server exited nonzero" >&2; exit 1; }
    echo "check.sh: budget smoke: $cev client / $sev server budget evictions"
    awk -v c="$cev" -v s="$sev" 'BEGIN { exit (c+0 > 0 && s+0 > 0) ? 0 : 1 }' || {
        echo "budget smoke: expected nonzero budget evictions on both sides" >&2
        exit 1
    }
    rm -rf "$tmp"
    echo "check.sh: budget smoke ok"
}
budget_smoke

# Delta smoke: differential transmission under concurrency. 8 RPC
# workers on a content-match mix with negotiation on must save ≥95% of
# wire bytes vs what the calls represent (the config measures 99.6%:
# every message stays bound to its own template, so every warm call is
# a patch frame; a rebind is a full body and shows here first), with
# zero failed calls, zero resyncs surfacing as errors, and the
# server-side differential fast path still ≥90% on the reconstructed
# bodies. The loadgen enforces all three and exits nonzero itself.
delta_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29993 \
        -metrics 127.0.0.1:28131 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29993 -workers 8 -replicas 16 \
        -n 400 -mix 100/0/0 -duration 4s -delta -max-err 0 \
        -min-delta-saved 95 \
        -server-metrics http://127.0.0.1:28131/metrics -min-server-fast 90 \
        > "$tmp/lg.log" || {
        echo "delta smoke: loadgen failed:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    grep 'delta:' "$tmp/lg.log"
    kill -TERM "$srv"
    wait "$srv" || { echo "delta smoke: server exited nonzero" >&2; exit 1; }
    rm -rf "$tmp"
    echo "check.sh: delta smoke ok"
}
delta_smoke

# Correlated-trace smoke: tracing on both processes, spans propagated
# over the wire, slow capture armed on both sides. The correlator must
# merge the two rings into cross-process timelines — its exit code
# asserts ≥1 merged call, zero orphaned server spans and zero bracket
# violations — and /debug/health must show nonzero slow captures on
# both sides.
correlate_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29994 \
        -metrics 127.0.0.1:28129 -trace -slow-threshold 1us -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    sleep 0.5
    # Bounded call count, untouched mix and per-leaf sampling keep both
    # rings far under one wrap — a lapped client ring sheds old spans
    # and the orphan gate below would trip on them. -hold keeps the
    # loadgen's debug endpoints alive after the run so both rings can
    # be scraped at rest.
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29994 -workers 8 -calls 200 \
        -mix 100/0/0 -trace -trace-sample 1000 -slow-threshold 1us \
        -metrics 127.0.0.1:28130 -max-err 0 -hold 30s > "$tmp/lg.log" 2>&1 &
    lg=$!
    held=0
    for _ in $(seq 1 100); do
        if grep -q 'holding debug endpoints' "$tmp/lg.log"; then held=1; break; fi
        kill -0 "$lg" 2>/dev/null || break
        sleep 0.2
    done
    [ "$held" = 1 ] || {
        echo "correlate smoke: loadgen never reached the hold window:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    "$tmp/bsoap-inspect" health http://127.0.0.1:28130/debug/health \
        http://127.0.0.1:28129/debug/health > "$tmp/health.log"
    cat "$tmp/health.log"
    [ "$(grep -c 'slow capture' "$tmp/health.log")" = 2 ] || {
        echo "correlate smoke: expected slow-capture status from both processes" >&2
        exit 1
    }
    if grep -q ' 0 captured' "$tmp/health.log"; then
        echo "correlate smoke: a slow ring captured nothing" >&2
        exit 1
    fi
    "$tmp/bsoap-inspect" trace -correlate \
        http://127.0.0.1:28130/debug/trace http://127.0.0.1:28129/debug/trace \
        > "$tmp/corr.log" || {
        echo "correlate smoke: correlator failed:" >&2
        tail -40 "$tmp/corr.log" >&2
        exit 1
    }
    tail -1 "$tmp/corr.log"
    kill "$lg" 2>/dev/null || true
    wait "$lg" 2>/dev/null || true
    kill -TERM "$srv"
    wait "$srv" || { echo "correlate smoke: server exited nonzero" >&2; exit 1; }
    rm -rf "$tmp"
    echo "check.sh: correlate smoke ok"
}
correlate_smoke

# Examples smoke: each example is a client and a server in one process
# (mcs and webindex read every response through an ExpectResponse
# sender), so a runtime change that breaks one shows here. Small flags;
# each must exit 0.
examples_smoke() {
    tmp=$(mktemp -d)
    for ex in "quickstart" "mcs -files 20" "webindex -queries 8" \
        "condor -machines 50 -rounds 4" "lsa -n 50"; do
        set -- $ex
        go build -o "$tmp/$1" "./examples/$1"
        "$tmp/$@" > "$tmp/$1.log" 2>&1 || {
            echo "examples smoke: $ex exited nonzero:" >&2
            cat "$tmp/$1.log" >&2
            exit 1
        }
    done
    rm -rf "$tmp"
    echo "check.sh: examples smoke ok"
}
examples_smoke

# Inspector smoke: bsoap-inspect's DUT dump of two scripted templates —
# MIOs (three kinds in one template, shifted and grown) and doubles
# (whose growth splits chunks) — must match the committed goldens byte
# for byte: the same chunk map, offsets, widths, lengths, type names and
# values, whatever the table's layout.
inspect_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    for run in mios:2000 doubles:4000; do
        typ=${run%%:*}
        "$tmp/bsoap-inspect" -type "$typ" -n "${run#*:}" -width exact \
            -script grow:0.5,touch:1,grow:1 > "$tmp/$typ.out" || {
            echo "inspect smoke: bsoap-inspect -type $typ failed" >&2
            exit 1
        }
        cmp -s "$tmp/$typ.out" "testdata/inspect_$typ.golden" || {
            echo "inspect smoke: the $typ dump differs from testdata/inspect_$typ.golden:" >&2
            diff "testdata/inspect_$typ.golden" "$tmp/$typ.out" | head -20 >&2 || true
            exit 1
        }
    done
    rm -rf "$tmp"
    echo "check.sh: inspect smoke ok"
}
inspect_smoke

# Coverage floors on the runtime packages the call path spans. These
# are ratchets, not targets: set just under the measured rate so a
# change that quietly sheds tests fails here, while timing-dependent
# paths (retry, redial) keep a couple points of slack. Raise them when
# coverage rises.
coverage_gate() {
    go test -cover ./internal/pool ./internal/transport ./internal/serverpool \
        ./internal/replica \
        > /tmp/cover.$$ || { cat /tmp/cover.$$; rm -f /tmp/cover.$$; exit 1; }
    awk '
        /internal\/pool/       { floor = 74 }
        /internal\/transport/  { floor = 84 }
        /internal\/serverpool/ { floor = 83 }
        /internal\/replica/    { floor = 80 }
        /coverage:/ {
            for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i+1) + 0
            printf "check.sh: coverage %s: %.1f%% (floor %d%%)\n", $2, pct, floor
            if (pct < floor) { bad = 1 }
        }
        END { exit bad }
    ' /tmp/cover.$$ || {
        echo "coverage gate: a package fell below its floor" >&2
        rm -f /tmp/cover.$$
        exit 1
    }
    rm -f /tmp/cover.$$
}
coverage_gate

# Fuzz smoke: run every fuzz target briefly so a parser regression that
# only random inputs catch fails the gate, not a user. FUZZTIME=0 skips
# (the corpus-replay runs in `go test` above still cover committed
# crashers); raise it locally for a deeper soak.
FUZZTIME=${FUZZTIME:-10s}
if [ "$FUZZTIME" != "0" ]; then
    go test -run='^$' -fuzz='^FuzzParser$'      -fuzztime="$FUZZTIME" ./internal/xmlparse
    go test -run='^$' -fuzz='^FuzzExpect$'      -fuzztime="$FUZZTIME" ./internal/xmlparse
    go test -run='^$' -fuzz='^FuzzDecode$'      -fuzztime="$FUZZTIME" ./internal/soapdec
    go test -run='^$' -fuzz='^FuzzDiffDeser$'   -fuzztime="$FUZZTIME" ./internal/diffdeser
    go test -run='^$' -fuzz='^FuzzInline$'      -fuzztime="$FUZZTIME" ./internal/multiref
    go test -run='^$' -fuzz='^FuzzParse$'       -fuzztime="$FUZZTIME" ./internal/wsdl
    go test -run='^$' -fuzz='^FuzzReadRequest$' -fuzztime="$FUZZTIME" ./internal/transport
    go test -run='^$' -fuzz='^FuzzReadResponse$' -fuzztime="$FUZZTIME" ./internal/transport
    go test -run='^$' -fuzz='^FuzzPipelineResponses$' -fuzztime="$FUZZTIME" ./internal/transport
    go test -run='^$' -fuzz='^FuzzDeltaFrame$'  -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzDeltaFrame$'  -fuzztime="$FUZZTIME" ./internal/serverpool
    go test -run='^$' -fuzz='^FuzzUnescape$'    -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzParseDouble$' -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzAppendDouble$' -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzAppendInt$'   -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzParseInt$'    -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzBindingSchedule$' -fuzztime="$FUZZTIME" ./internal/pool
    # A schedule replays up to 64 calls, each checked against a fresh
    # serialization: minimizing one spends the default minute on a
    # single input, so the minimizer gets five seconds.
    go test -run='^$' -fuzz='^FuzzMutationSchedule$' -fuzztime="$FUZZTIME" \
        -fuzzminimizetime=5s ./internal/core
fi
echo "check.sh: all green"
