package httpserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"strings"
)

// Edge-batch wire formats. Ingest accepts two encodings, chosen by the
// request Content-Type:
//
//   - NDJSON (application/x-ndjson; also accepted as application/json,
//     text/plain, curl's --data default application/x-www-form-urlencoded,
//     and when no type is given): one edge per line, either the compact
//     pair form `[src,dst]` or the object form `{"src":S,"dst":D}`. Blank
//     lines are ignored. Human-writable — this is what curl examples use.
//   - Binary (application/octet-stream): packed little-endian uint32
//     pairs, 8 bytes per edge, no framing. 4-5× smaller and an order of
//     magnitude cheaper to decode than NDJSON; the load harness and any
//     throughput-sensitive writer should use it.
//
// A binary request allocates its body once and its edges once: the body
// is read into one byte buffer, presized from the request's Content-Length
// but never beyond maxPresize before the bytes arrive, and decoded with
// indexed loads into one exact-size allocation split into src and dst —
// 2 objects for a 1 000-edge body with its Content-Length. An NDJSON
// request allocates one line buffer, sized by the same capped hint, and
// its two columns, which grow as edges arrive; a line is parsed where the
// scanner holds it, so no line allocates unless it is in the object form.

// ContentTypeBinary is the Content-Type of the packed binary edge format.
const ContentTypeBinary = "application/octet-stream"

// ContentTypeNDJSON is the canonical Content-Type of the NDJSON edge
// format.
const ContentTypeNDJSON = "application/x-ndjson"

// maxPresize caps what a decoder allocates for a body before its bytes
// arrive: a client that claims a large Content-Length cannot make the
// server allocate for it. Beyond it a buffer grows only as bytes are read.
const maxPresize = 1 << 20

// maxLine bounds one NDJSON line.
const maxLine = 1 << 20

// jsonEdge is the NDJSON object form of one edge.
type jsonEdge struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

// errTruncated is a binary body that is not a multiple of 8 bytes.
var errTruncated = errors.New("binary edge batch truncated mid-edge (body must be a multiple of 8 bytes)")

// DecodeEdges reads an entire edge batch from r in the format named by
// contentType (see the package forms above) and returns it in the
// engine's columnar src/dst layout. A batch larger than maxEdges edges is
// rejected with an error rather than truncated. A reader that reports its
// length (bytes.Reader, strings.Reader, bytes.Buffer) is read into a buffer
// of that size; any other is read as it arrives.
func DecodeEdges(contentType string, r io.Reader, maxEdges int) (src, dst []uint32, err error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return decodeEdges(contentType, r, size, maxEdges)
}

// decodeEdges is DecodeEdges with the body's expected size in bytes, or -1
// when it is unknown (a chunked request). The size only presizes buffers:
// a body shorter or longer than it decodes the same.
func decodeEdges(contentType string, r io.Reader, size int64, maxEdges int) (src, dst []uint32, err error) {
	switch mediaType(contentType) {
	case ContentTypeBinary:
		return decodeBinary(r, size, maxEdges)
	case "", ContentTypeNDJSON, "application/json", "text/plain",
		"application/x-www-form-urlencoded": // curl's --data/--data-binary default
		return decodeNDJSON(r, size, maxEdges)
	default:
		return nil, nil, fmt.Errorf("unsupported Content-Type %q (want %s or %s)",
			contentType, ContentTypeNDJSON, ContentTypeBinary)
	}
}

// mediaType is contentType without its parameters, lower-cased. The two
// formats' own names are returned as they are, without the allocation
// mime.ParseMediaType makes for the parameters.
func mediaType(contentType string) string {
	if contentType == ContentTypeBinary || contentType == ContentTypeNDJSON {
		return contentType
	}
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		return parsed
	}
	return contentType
}

// presize is the first buffer size for a body of the given expected size:
// one byte more, so the read that meets the end has room, but at most limit
// and maxPresize, and bufio's 4 KiB when the size is unknown.
func presize(size, limit int64) int64 {
	if size < 0 {
		size = 4<<10 - 1
	}
	return min(size+1, limit, maxPresize)
}

// decodeBinary reads packed little-endian uint32 pairs until EOF. It reads
// at most one edge past maxEdges, enough to tell a batch that is too large
// from one truncated after its last allowed edge.
func decodeBinary(r io.Reader, size int64, maxEdges int) (src, dst []uint32, err error) {
	allowed := max(maxEdges, 0)
	limit := 8*int64(allowed) + 8
	body := make([]byte, 0, presize(size, limit))
	for int64(len(body)) < limit {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(2*int64(cap(body)), limit))
			copy(grown, body)
			body = grown
		}
		n, err := r.Read(body[len(body):min(int64(cap(body)), limit)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			return nil, nil, errTruncated
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if len(body)%8 != 0 {
		return nil, nil, errTruncated
	}
	n := len(body) / 8
	if n > allowed {
		return nil, nil, fmt.Errorf("edge batch exceeds %d edges", maxEdges)
	}
	if n == 0 {
		return nil, nil, nil
	}
	cols := make([]uint32, 2*n)
	src, dst = cols[:n:n], cols[n:]
	for i := range src {
		e := body[8*i : 8*i+8]
		src[i] = binary.LittleEndian.Uint32(e[0:4])
		dst[i] = binary.LittleEndian.Uint32(e[4:8])
	}
	return src, dst, nil
}

// decodeNDJSON reads one edge per line in either the `[src,dst]` pair form
// (parsed without reflection — the hot path) or the `{"src":..,"dst":..}`
// object form. Lines are parsed where the scanner holds them.
func decodeNDJSON(r io.Reader, size int64, maxEdges int) (src, dst []uint32, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, presize(size, maxLine)), maxLine)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		s, d, ok := scanPair(text)
		if !ok {
			if text = bytes.TrimSpace(text); len(text) == 0 {
				continue // a blank line
			}
		}
		if len(src) >= maxEdges {
			return nil, nil, fmt.Errorf("edge batch exceeds %d edges", maxEdges)
		}
		if !ok {
			if s, d, err = parseLine(text); err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", line, err)
			}
		}
		src = append(src, s)
		dst = append(dst, d)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// parseLine parses a non-blank NDJSON line, trimmed, in either form. Only
// the lines scanPair refuses come here, so the pair form's copy to a string
// is off the hot path.
func parseLine(text []byte) (s, d uint32, err error) {
	if text[0] == '[' {
		return parsePairLine(string(text))
	}
	var e jsonEdge
	err = json.Unmarshal(text, &e)
	return e.Src, e.Dst, err
}

// scanPair parses, in one pass over its bytes, a line of the pair form
// `[src,dst]` with ASCII white space allowed around each token. It reports
// false for any other line — blank, the object form, a malformed pair, a
// number past uint32, Unicode white space — which parsePairLine or
// json.Unmarshal then reads, with their errors: a line scanPair accepts,
// they accept with the same edge.
func scanPair(line []byte) (s, d uint32, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '[' {
		return 0, 0, false
	}
	if s, i, ok = scanUint32(line, skipSpace(line, i+1)); !ok {
		return 0, 0, false
	}
	if i = skipSpace(line, i); i == len(line) || line[i] != ',' {
		return 0, 0, false
	}
	if d, i, ok = scanUint32(line, skipSpace(line, i+1)); !ok {
		return 0, 0, false
	}
	if i = skipSpace(line, i); i == len(line) || line[i] != ']' {
		return 0, 0, false
	}
	return s, d, skipSpace(line, i+1) == len(line)
}

// skipSpace returns the index of the first byte of b at or after i that is
// not ASCII white space as bytes.TrimSpace counts it.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i]-'\t' <= '\r'-'\t') {
		i++
	}
	return i
}

// scanUint32 reads the decimal digits of b from i, at most 11 of them so
// the sum cannot wrap, and reports whether there was one and it fits
// uint32. next is the index after the last digit read.
func scanUint32(b []byte, i int) (v uint32, next int, ok bool) {
	start := i
	var x uint64
	for ; i < len(b) && i-start < 11 && b[i]-'0' <= 9; i++ {
		x = x*10 + uint64(b[i]-'0')
	}
	return uint32(x), i, i > start && x <= 1<<32-1
}

// parsePairLine parses the compact `[src,dst]` form with optional spaces.
func parsePairLine(text string) (s, d uint32, err error) {
	body := strings.TrimSpace(text)
	if len(body) < 2 || body[0] != '[' || body[len(body)-1] != ']' {
		return 0, 0, fmt.Errorf("malformed edge pair %q", text)
	}
	body = body[1 : len(body)-1]
	comma := strings.IndexByte(body, ',')
	if comma < 0 {
		return 0, 0, fmt.Errorf("malformed edge pair %q", text)
	}
	s, err = parseUint32(strings.TrimSpace(body[:comma]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad src in %q: %v", text, err)
	}
	d, err = parseUint32(strings.TrimSpace(body[comma+1:]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad dst in %q: %v", text, err)
	}
	return s, d, nil
}

// parseUint32 parses a non-negative decimal that fits uint32, without
// strconv's error allocation on the hot path.
func parseUint32(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid digit %q", c)
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<32-1 {
			return 0, fmt.Errorf("value overflows uint32")
		}
	}
	return uint32(v), nil
}

// AppendBinaryEdges appends the batch's packed binary encoding (the
// ContentTypeBinary wire form: little-endian uint32 pairs) to dst and
// returns it. The inverse of DecodeEdges for the binary format; the load
// harness builds its write bodies with it.
func AppendBinaryEdges(dst []byte, src, dsts []uint32) []byte {
	var buf [8]byte
	for i := range src {
		binary.LittleEndian.PutUint32(buf[0:4], src[i])
		binary.LittleEndian.PutUint32(buf[4:8], dsts[i])
		dst = append(dst, buf[:]...)
	}
	return dst
}
