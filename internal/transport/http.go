// Package transport carries serialized SOAP messages. It implements,
// from scratch over net.Conn, the slice of HTTP/1.1 the paper's
// measurements rely on: POST framing with Content-Length on a persistent
// connection, and chunked transfer encoding for streamed sends,
// plus the discard server used to isolate client Send Time and an
// in-process sink for jitter-free benchmarking.
package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"bsoap/internal/wire"
)

// Request is one parsed HTTP request. A Request reused across messages
// with ReadRequestInto keeps its header map, body array and string
// intern cache, so steady-state parsing on a keep-alive connection does
// not allocate; consumers that retain any part of a reused request past
// the next ReadRequestInto must copy it.
type Request struct {
	Method  string
	Target  string
	Headers map[string]string // keys lower-cased; x-bsoap-trace is parsed into TraceSpan instead
	Body    []byte

	// ConnID identifies the connection the request arrived on: unique
	// per accepted connection within one Server, stable across the
	// connection's keep-alive requests, never zero when set by a Server.
	// Handlers use it for connection-affine state (serverpool keys its
	// differential-deserializer replicas by it).
	ConnID uint64
	// RemoteAddr is the peer address of the connection (host:port),
	// for logging and tracing. Set by the Server alongside ConnID; zero
	// for requests parsed outside a Server.
	RemoteAddr string

	// TraceSpan is the client's flight-recorder span id, parsed from the
	// X-BSoap-Trace header (hex); zero when the request carried none.
	// Server-side trace events record it so the inspector can join
	// client and server rings into one cross-process timeline.
	TraceSpan uint64

	// DeltaMode classifies the request's X-BSoap-Delta header: none, a
	// full body offered as a delta base (sync), or a patch frame body.
	// DeltaTID/DeltaEpoch carry the sync header's template identity.
	DeltaMode  DeltaMode
	DeltaTID   uint64
	DeltaEpoch uint64

	// DeltaAck* are outputs: a delta-capable handler sets them after
	// storing a sync request's body as a patch base, and the server
	// echoes them as the response's X-BSoap-Delta ack header — the
	// capability signal delta negotiation rides on.
	DeltaAck      bool
	DeltaAckTID   uint64
	DeltaAckEpoch uint64

	// Resp is recycled storage for the handler's response body: a
	// handler may build its response in Resp[:0], store the grown slice
	// back and return it, and a warm connection answers without
	// allocating. The Server hands it out as the empty slice right after
	// the header headroom of its response buffer, so a body built there
	// goes out behind its header in one Write, with no copy. The Server never
	// reads the field; it lives until the next read into the request
	// (under read-ahead, after its response is written).
	Resp []byte

	// recvNs is the UnixNano at which the Server finished reading the
	// request; dispatch attributes recv→dispatch time to the
	// server-queue latency stage. Zero outside a Server.
	recvNs int64
	// refused marks a request the parser refused: the Server answers it
	// 400 and closes the connection (Server.nextRequest).
	refused bool

	scratch parseScratch
	// out is the Server's response buffer, len == cap: respHeaderBytes of
	// headroom for the header section, then the body (see respond).
	out []byte
}

// DeltaMode classifies a request's differential-transmission intent.
type DeltaMode uint8

const (
	// DeltaNone is a plain request (no X-BSoap-Delta header).
	DeltaNone DeltaMode = iota
	// DeltaSync is a full body the client offers as a patch base.
	DeltaSync
	// DeltaPatch is a binary patch frame in place of the XML body.
	DeltaPatch
)

// Response is one parsed HTTP response. The reuse contract matches
// Request's: ReadResponseInto recycles the map, body and interns.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte

	scratch parseScratch
}

// parseScratch is the reusable state behind ReadRequestInto and
// ReadResponseInto: a line buffer for headers longer than the reader's
// window, the body backing array, and an intern cache mapping header and
// status strings to previously allocated copies. On a connection
// carrying the same shape of message repeatedly — the differential
// steady state — every lookup hits and parsing allocates nothing.
type parseScratch struct {
	line    []byte
	body    []byte
	interns map[string]string
	// traceSpan is the message's X-BSoap-Trace value (zero: none, or
	// garbage). Its value is new on every call, so it is parsed where it
	// is read and never reaches the intern cache.
	traceSpan uint64
}

// intern returns the cached string equal to b, allocating only on first
// sight. The cache is bounded; a pathological peer cycling values resets
// it rather than growing it without limit.
func (ps *parseScratch) intern(b []byte) string {
	if s, ok := ps.interns[string(b)]; ok { // no alloc: lookup conversion
		return s
	}
	if ps.interns == nil || len(ps.interns) >= maxInterned {
		ps.interns = make(map[string]string, 16)
	}
	s := string(b)
	ps.interns[s] = s
	return s
}

// maxInterned bounds a connection's intern cache.
const maxInterned = 1024

// errConnClosed reports a cleanly closed connection between messages.
var errConnClosed = errors.New("transport: connection closed")

// maxHeaderBytes bounds a message's header section.
const maxHeaderBytes = 64 * 1024

// maxBodyBytes bounds a message body (defensive; experiments stay far
// below it).
const maxBodyBytes = 1 << 30

// readLine returns the next \n-terminated line including the terminator.
// The fast path hands back a slice of br's internal buffer, valid only
// until the next read; lines longer than the buffer accumulate into
// *scratch. An incomplete final line is returned alongside its error.
func readLine(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil || err != bufio.ErrBufferFull {
		return line, err
	}
	buf := append((*scratch)[:0], line...)
	for {
		line, err = br.ReadSlice('\n')
		buf = append(buf, line...)
		*scratch = buf
		if err != bufio.ErrBufferFull {
			return buf, err
		}
		if len(buf) > maxHeaderBytes {
			return buf, errors.New("transport: line too long")
		}
	}
}

// readCRLFLine reads one line that must end in CRLF, and returns it
// without the CRLF. The chunked framing reads its lines this way: a bare
// LF there is refused, not read as a line end another parser may not
// see (RFC 9112 §7.1).
func readCRLFLine(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := readLine(br, scratch)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(line, []byte("\r\n")) {
		return nil, fmt.Errorf("line %q not CRLF-terminated", line)
	}
	return line[:len(line)-2], nil
}

// trimCRLF strips one trailing "\n" or "\r\n".
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// lowerASCIIInPlace lowercases b where it lies. Callers pass slices of
// already-consumed reader buffer or scratch, which nothing else reads.
func lowerASCIIInPlace(b []byte) []byte {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return b
}

// parseUintBytes is strconv.ParseUint(string(b), base, 32) without the
// string conversion or allocation; base is 10 or 16.
func parseUintBytes[T ~string | ~[]byte](b T, base uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > 1<<32 {
			return 0, false
		}
	}
	return n, true
}

// parseHex64 parses a full-range lowercase/uppercase hex uint64 — the
// X-BSoap-Trace span id, which parseUintBytes cannot carry (it rejects
// values above 1<<32, a guard sized for lengths and status codes).
func parseHex64[T ~string | ~[]byte](s T) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		n = n<<4 | d
	}
	return n, true
}

// splitRequestLine splits a request line into its method and target,
// which exactly two single spaces separate from each other and from the
// version (RFC 9112 §3). A
// doubled space, a tab or any other control byte refuses the line, as
// net/http refuses it, instead of being read as a separator. The method
// must be a token, the target in origin form ("/" and a path whose
// percent-escapes are all two hex digits, RFC 9112 §3.2.1), and the
// version HTTP/1.1, the one framing the server speaks.
func splitRequestLine(line []byte) (method, target []byte, ok bool) {
	if hasCTL(line) || bytes.IndexByte(line, '\t') >= 0 {
		return nil, nil, false
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return nil, nil, false
	}
	method, target = line[:sp], line[sp+1:]
	if sp = bytes.IndexByte(target, ' '); sp < 0 {
		return nil, nil, false
	}
	proto := target[sp+1:]
	target = target[:sp]
	ok = isToken(method) && originForm(target) && string(proto) == "HTTP/1.1"
	return method, target, ok
}

// parseStatusLine returns the status code of a response's status line,
// held to the request line's rules: the version HTTP/1.1, one space,
// exactly three digits, then the end of the line or a space and a
// reason phrase, which is ignored (RFC 9112 §4). A control byte other
// than HTAB refuses the line. So does a code outside 200–599: an
// interim (1xx) response has no body whatever its headers say, and a
// reader that took it for the answer would pair every later response
// with the wrong request.
func parseStatusLine(line []byte) (int, bool) {
	const version = "HTTP/1.1"
	v := len(version)
	if len(line) < v+4 || string(line[:v]) != version || line[v] != ' ' || hasCTL(line) {
		return 0, false
	}
	code, rest := line[v+1:v+4], line[v+4:]
	if len(rest) > 0 && rest[0] != ' ' {
		return 0, false
	}
	status := 0
	for _, c := range code {
		if c < '0' || c > '9' {
			return 0, false
		}
		status = status*10 + int(c-'0')
	}
	return status, 200 <= status && status <= 599
}

// isToken reports whether b is a non-empty RFC 9110 §5.6.2 token.
func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenByte[c] {
			return false
		}
	}
	return len(b) > 0
}

// tokenByte marks the bytes a token may hold.
var tokenByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0
	}
	return t
}()

// originForm reports whether target is an origin-form request target:
// it starts with "/", and every "%" begins a two-hex-digit escape.
func originForm(target []byte) bool {
	if len(target) == 0 || target[0] != '/' {
		return false
	}
	for i, c := range target {
		if c == '%' && (i+2 >= len(target) || !isHex(target[i+1]) || !isHex(target[i+2])) {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hasCTL reports whether b holds a control byte other than HTAB, which
// no header value may carry (RFC 9110 §5.5).
func hasCTL(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return true
		}
	}
	return false
}

// readHeadersInto parses "Key: Value" lines up to the blank line into h,
// which is cleared and reused (or allocated when nil). Spellings another
// HTTP parser may read differently are refused rather than read one
// way: an obs-fold continuation line, a name that is not a token
// (whitespace before its colon, say), Content-Length repeated with
// another value, a repeated Host or Transfer-Encoding, a Trailer that
// announces a framing header, and a control byte other than HTAB
// anywhere in a value (RFC 9112 §3.2, §5.1, §5.2, §6.3; RFC 9110 §5.5).
// Only SP and HTAB are trimmed.
// Responses share these rules, as both share net/textproto's in net/http.
func readHeadersInto(br *bufio.Reader, h map[string]string, ps *parseScratch) (map[string]string, error) {
	if h == nil {
		h = make(map[string]string, 8)
	} else {
		clear(h)
	}
	ps.traceSpan = 0
	total := 0
	for {
		line, err := readLine(br, &ps.line)
		if err != nil {
			return nil, fmt.Errorf("transport: reading header: %w", err)
		}
		total += len(line)
		if total > maxHeaderBytes {
			return nil, errors.New("transport: header section too large")
		}
		line = trimCRLF(line)
		if len(line) == 0 {
			return h, nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			return nil, fmt.Errorf("transport: folded header line %q", line)
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("transport: malformed header line %q", line)
		}
		if !isToken(line[:colon]) {
			return nil, fmt.Errorf("transport: header name not a token in %q", line)
		}
		key := lowerASCIIInPlace(line[:colon])
		val := line[colon+1:]
		if hasCTL(val) {
			return nil, fmt.Errorf("transport: control byte in header line %q", line)
		}
		val = bytes.Trim(val, " \t")
		switch string(key) {
		case "content-length":
			if prev, ok := h["content-length"]; ok && prev != string(val) {
				return nil, errors.New("transport: conflicting content-length headers")
			}
		case "host", "transfer-encoding":
			if _, ok := h[string(key)]; ok {
				return nil, fmt.Errorf("transport: repeated %s header", key)
			}
		case "trailer":
			for _, name := range bytes.Split(val, []byte(",")) {
				switch string(bytes.ToLower(bytes.Trim(name, " \t"))) {
				case "content-length", "transfer-encoding", "trailer":
					return nil, fmt.Errorf("transport: framing header %q announced as a trailer", name)
				}
			}
		}
		if string(key) == traceHeaderKey {
			ps.traceSpan, _ = parseHex64(val)
			continue
		}
		h[ps.intern(key)] = ps.intern(val)
	}
}

// readBodyInto consumes the message body per the framing headers into
// ps.body. No content encoding is accepted: a body is the message bytes
// themselves (delta frames, not compression, are the answer to slow
// links). A Content-Length is checked even beside chunked encoding,
// which overrides it, and so are both when none is set (a status that
// carries no body): net/http refuses a malformed one either way.
func readBodyInto(br *bufio.Reader, h map[string]string, ps *parseScratch, none bool) ([]byte, error) {
	if ce, ok := h["content-encoding"]; ok {
		return nil, fmt.Errorf("transport: unsupported content encoding %q", ce)
	}
	cl, hasCL := h["content-length"]
	n, okn := parseUintBytes(cl, 10)
	if hasCL && (!okn || n > maxBodyBytes) {
		return nil, fmt.Errorf("transport: bad content-length %q", cl)
	}
	te, chunked := h["transfer-encoding"]
	if chunked && !strings.EqualFold(te, "chunked") {
		return nil, fmt.Errorf("transport: unsupported transfer encoding %q", te)
	}
	switch {
	case none:
		return nil, nil
	case chunked:
		return readChunkedBodyInto(br, ps)
	case !hasCL:
		return nil, errors.New("transport: message without content-length or chunked encoding")
	}
	if uint64(cap(ps.body)) < n {
		ps.body = make([]byte, n)
	}
	body := ps.body[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("transport: reading body: %w", err)
	}
	return body, nil
}

// readChunkedBodyInto decodes an HTTP/1.1 chunked body into ps.body.
func readChunkedBodyInto(br *bufio.Reader, ps *parseScratch) ([]byte, error) {
	body := ps.body[:0]
	for {
		line, err := readCRLFLine(br, &ps.line)
		if err != nil {
			return nil, fmt.Errorf("transport: reading chunk size: %w", err)
		}
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi] // chunk extensions, ignored
		}
		size, ok := parseUintBytes(line, 16)
		if !ok || len(line) > 16 {
			return nil, fmt.Errorf("transport: bad chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: field lines up to the final blank line.
			for {
				t, err := readCRLFLine(br, &ps.line)
				if err != nil {
					return nil, fmt.Errorf("transport: reading trailer: %w", err)
				}
				if len(t) == 0 {
					ps.body = body
					return body, nil
				}
				if colon := bytes.IndexByte(t, ':'); colon < 0 || !isToken(t[:colon]) || hasCTL(t[colon+1:]) {
					return nil, fmt.Errorf("transport: malformed trailer line %q", t)
				}
			}
		}
		if uint64(len(body))+size > maxBodyBytes {
			return nil, errors.New("transport: chunked body too large")
		}
		off := len(body)
		need := off + int(size)
		for cap(body) < need {
			body = append(body[:cap(body)], 0)
		}
		body = body[:need]
		ps.body = body
		if _, err := io.ReadFull(br, body[off:]); err != nil {
			return nil, fmt.Errorf("transport: reading chunk data: %w", err)
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return nil, fmt.Errorf("transport: reading chunk data: %w", err)
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, errors.New("transport: chunk data not CRLF-terminated")
		}
	}
}

// ReadRequest parses one HTTP request from br. io.EOF before the first
// byte maps to errConnClosed so servers distinguish clean closes.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := &Request{}
	if err := ReadRequestInto(br, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadRequestInto parses one HTTP request into req, reusing its header
// map, body backing and intern cache. Everything reachable from req is
// valid only until the next ReadRequestInto on it.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	line, err := readLine(br, &req.scratch.line)
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return errConnClosed
		}
		return fmt.Errorf("transport: reading request line: %w", err)
	}
	method, target, ok := splitRequestLine(trimCRLF(line))
	if !ok {
		return fmt.Errorf("transport: malformed request line %q", line)
	}
	ps := &req.scratch
	req.Method = ps.intern(method)
	req.Target = ps.intern(target)
	if req.Headers, err = readHeadersInto(br, req.Headers, ps); err != nil {
		return err
	}
	// Reset-then-parse, as readHeadersInto did for the span: a keep-alive
	// connection must not leak a previous request's onto one without.
	req.TraceSpan = ps.traceSpan
	// Same reset-then-parse discipline for delta negotiation state, both
	// the parsed inputs and the handler-set ack outputs.
	req.DeltaMode, req.DeltaTID, req.DeltaEpoch = DeltaNone, 0, 0
	req.DeltaAck, req.DeltaAckTID, req.DeltaAckEpoch = false, 0, 0
	if v, ok := req.Headers[wire.DeltaHeaderKey]; ok {
		if v == wire.DeltaValPatch {
			req.DeltaMode = DeltaPatch
		} else if tid, epoch, okp := wire.ParseDeltaSync(v); okp {
			req.DeltaMode, req.DeltaTID, req.DeltaEpoch = DeltaSync, tid, epoch
		}
	}
	req.Body = nil
	if req.Method == "GET" || req.Method == "HEAD" {
		// Refused, not skipped: a body left unread would be read as the
		// next request.
		_, cl := req.Headers["content-length"]
		_, te := req.Headers["transfer-encoding"]
		if cl || te {
			return fmt.Errorf("transport: %s request with a body", req.Method)
		}
		return nil
	}
	req.Body, err = readBodyInto(br, req.Headers, ps, false)
	return err
}

// ReadResponseInto parses one HTTP response into resp under the same
// reuse contract as ReadRequestInto.
func ReadResponseInto(br *bufio.Reader, resp *Response) error {
	line, err := readLine(br, &resp.scratch.line)
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return errConnClosed
		}
		return fmt.Errorf("transport: reading status line: %w", err)
	}
	status, ok := parseStatusLine(trimCRLF(line))
	if !ok {
		return fmt.Errorf("transport: malformed status line %q", line)
	}
	ps := &resp.scratch
	resp.Status = status
	if resp.Headers, err = readHeadersInto(br, resp.Headers, ps); err != nil {
		return err
	}
	resp.Body, err = readBodyInto(br, resp.Headers, ps, resp.Status == 204 || resp.Status == 304)
	return err
}

// respHeaderBytes is the headroom ahead of a response body in a Server's
// response buffer. It holds any header section the Server renders:
// status line, content type, a delta ack and Content-Length.
const respHeaderBytes = 224

// WriteResponse writes a complete HTTP/1.1 response with Content-Length
// framing in one Write. It allocates the buffer it writes; the Server
// answers a request from the request's own (respond).
func WriteResponse(w io.Writer, status int, contentType string, body []byte) error {
	b := appendResponseHeader(make([]byte, 0, respHeaderBytes+len(body)), status, contentType, nil, len(body))
	_, err := w.Write(append(b, body...))
	return err
}

// appendResponseHeader renders a response's header section onto b.
// extra is complete CRLF-terminated header lines spliced in before
// Content-Length (e.g. "X-BSoap-Delta: ack=1.0\r\n"), or nil.
func appendResponseHeader(b []byte, status int, contentType string, extra []byte, bodyLen int) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, statusText(status)...)
	b = append(b, crlf...)
	if contentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, contentType...)
		b = append(b, crlf...)
	}
	b = append(b, extra...)
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(bodyLen), 10)
	b = append(b, crlf...)
	return append(b, crlf...)
}

// beginResponse hands the handler Resp as the empty slice right after
// the headroom of req's response buffer.
func (req *Request) beginResponse() {
	if len(req.out) < respHeaderBytes {
		req.out = make([]byte, respHeaderBytes)
	}
	req.Resp = req.out[respHeaderBytes:respHeaderBytes]
}

// respond writes one response to w in exactly one Write of one
// contiguous buffer, req's own. A body built in the Resp that
// beginResponse handed out already sits behind the headroom: the header
// is rendered into scratch and copied right-aligned in front of it, and
// no body byte moves. Any other body — a handler's own slice, a Resp
// that outgrew the buffer, the 500 text — is copied behind the header
// once, into a buffer grown to hold it and kept, so the next request
// builds in place again. One buffer rather than net.Buffers: writev is
// one syscall only on a bare *net.TCPConn, and any wrapped conn gets one
// Write per buffer.
func (req *Request) respond(w io.Writer, status int, contentType string, extra, body []byte) error {
	var scratch [respHeaderBytes]byte
	hdr := appendResponseHeader(scratch[:0], status, contentType, extra, len(body))
	end := respHeaderBytes + len(body)
	if len(req.out) < end {
		req.out = slices.Grow(req.out[:0], end)
		req.out = req.out[:cap(req.out)]
	}
	if len(body) > 0 && &body[0] != &req.out[respHeaderBytes] {
		copy(req.out[respHeaderBytes:], body)
	}
	start := respHeaderBytes - len(hdr)
	copy(req.out[start:], hdr)
	_, err := w.Write(req.out[start:end])
	return err
}

func statusText(status int) string {
	switch status {
	case 200:
		return "OK"
	case 202:
		return "Accepted"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 409:
		return "Conflict"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	}
	return "Status"
}
