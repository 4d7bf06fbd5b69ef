package httpserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]uint32, 1000)
	dst := make([]uint32, 1000)
	for i := range src {
		src[i] = rng.Uint32()
		dst[i] = rng.Uint32()
	}
	body := AppendBinaryEdges(nil, src, dst)
	if len(body) != 8*len(src) {
		t.Fatalf("encoded %d bytes, want %d", len(body), 8*len(src))
	}
	gs, gd, err := DecodeEdges(ContentTypeBinary, bytes.NewReader(body), len(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if gs[i] != src[i] || gd[i] != dst[i] {
			t.Fatalf("edge %d: got (%d,%d) want (%d,%d)", i, gs[i], gd[i], src[i], dst[i])
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	if _, _, err := DecodeEdges(ContentTypeBinary, bytes.NewReader(make([]byte, 12)), 100); err == nil {
		t.Fatal("want error for body not a multiple of 8 bytes")
	}
}

func TestNDJSONForms(t *testing.T) {
	in := strings.Join([]string{
		"[1,2]",
		"  [ 3 , 4 ]  ",
		`{"src":5,"dst":6}`,
		"",
		"[4294967295,0]",
	}, "\n")
	src, dst, err := DecodeEdges(ContentTypeNDJSON, strings.NewReader(in), 100)
	if err != nil {
		t.Fatal(err)
	}
	wantS := []uint32{1, 3, 5, 4294967295}
	wantD := []uint32{2, 4, 6, 0}
	if len(src) != len(wantS) {
		t.Fatalf("got %d edges, want %d", len(src), len(wantS))
	}
	for i := range wantS {
		if src[i] != wantS[i] || dst[i] != wantD[i] {
			t.Fatalf("edge %d: got (%d,%d) want (%d,%d)", i, src[i], dst[i], wantS[i], wantD[i])
		}
	}
	// The default (no Content-Type) is NDJSON too, as is curl's --data
	// default.
	for _, ct := range []string{"", "application/x-www-form-urlencoded"} {
		if _, _, err := DecodeEdges(ct, strings.NewReader("[1,2]"), 10); err != nil {
			t.Fatalf("content type %q: %v", ct, err)
		}
	}
}

func TestNDJSONErrors(t *testing.T) {
	for _, bad := range []string{
		"[1]",
		"[1,2,3x]",
		"[4294967296,0]", // overflows uint32
		"{\"src\":1}extra",
		"nonsense",
	} {
		if _, _, err := DecodeEdges(ContentTypeNDJSON, strings.NewReader(bad), 10); err == nil {
			t.Errorf("want error for %q", bad)
		}
	}
}

func TestDecodeEdgesLimits(t *testing.T) {
	if _, _, err := DecodeEdges(ContentTypeNDJSON, strings.NewReader("[1,2]\n[3,4]"), 1); err == nil {
		t.Fatal("want error when batch exceeds maxEdges")
	}
	body := AppendBinaryEdges(nil, []uint32{1, 2}, []uint32{3, 4})
	if _, _, err := DecodeEdges(ContentTypeBinary, bytes.NewReader(body), 1); err == nil {
		t.Fatal("want error when binary batch exceeds maxEdges")
	}
	if _, _, err := DecodeEdges("application/protobuf", strings.NewReader(""), 1); err == nil {
		t.Fatal("want error for unsupported content type")
	}
}

// binaryBody is n random edges in the binary wire form.
func binaryBody(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	src := make([]uint32, n)
	dst := make([]uint32, n)
	for i := range src {
		src[i], dst[i] = rng.Uint32(), rng.Uint32()
	}
	return AppendBinaryEdges(nil, src, dst)
}

// ndjsonBody is n random edges in the NDJSON pair form.
func ndjsonBody(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	var b []byte
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "[%d,%d]\n", rng.Uint32()>>8, rng.Uint32()>>8)
	}
	return b
}

// TestIngestDecodeAllocs holds a binary decode to its two allocations, the
// body and the columns, when the request says how long the body is.
func TestIngestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	body := binaryBody(1000)
	r := bytes.NewReader(body)
	n := testing.AllocsPerRun(200, func() {
		r.Reset(body)
		src, _, err := decodeEdges(ContentTypeBinary, r, int64(len(body)), 1000)
		if err != nil || len(src) != 1000 {
			t.Fatalf("decoded %d edges, err %v", len(src), err)
		}
	})
	if n > 2 {
		t.Errorf("a 1 000-edge binary decode allocates %v objects, want at most 2", n)
	}
}

// BenchmarkDecodeEdges decodes one body per iteration through the public
// entry point, which reads a bytes.Reader's length as the body's size.
func BenchmarkDecodeEdges(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		for _, f := range []struct {
			name, contentType string
			body              []byte
		}{
			{"binary", ContentTypeBinary, binaryBody(n)},
			{"ndjson", ContentTypeNDJSON, ndjsonBody(n)},
		} {
			b.Run(fmt.Sprintf("%s/%dk", f.name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(f.body)))
				r := bytes.NewReader(f.body)
				for i := 0; i < b.N; i++ {
					r.Reset(f.body)
					src, _, err := DecodeEdges(f.contentType, r, n)
					if err != nil || len(src) != n {
						b.Fatalf("decoded %d edges, err %v", len(src), err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/edge")
			})
		}
	}
}

// The decoders as they were before they read the body in one pass, kept as
// the oracle FuzzDecodeEdges holds the new ones to: one io.ReadFull per
// edge from a 64 KiB bufio.Reader, and one string per NDJSON line parsed by
// parsePairLine, which the new decoder keeps for the lines scanPair refuses.

// oracleDecodeBinary reads packed little-endian uint32 pairs until EOF.
func oracleDecodeBinary(r io.Reader, maxEdges int) (src, dst []uint32, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var buf [8]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF {
				return src, dst, nil
			}
			if err == io.ErrUnexpectedEOF {
				return nil, nil, fmt.Errorf("binary edge batch truncated mid-edge (body must be a multiple of 8 bytes)")
			}
			return nil, nil, err
		}
		if len(src) >= maxEdges {
			return nil, nil, fmt.Errorf("edge batch exceeds %d edges", maxEdges)
		}
		src = append(src, binary.LittleEndian.Uint32(buf[0:4]))
		dst = append(dst, binary.LittleEndian.Uint32(buf[4:8]))
	}
}

// oracleDecodeNDJSON reads one edge per line in either the `[src,dst]` pair
// form or the `{"src":..,"dst":..}` object form.
func oracleDecodeNDJSON(r io.Reader, maxEdges int) (src, dst []uint32, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if len(src) >= maxEdges {
			return nil, nil, fmt.Errorf("edge batch exceeds %d edges", maxEdges)
		}
		var s, d uint32
		if text[0] == '[' {
			s, d, err = parsePairLine(text)
		} else {
			var e jsonEdge
			err = json.Unmarshal([]byte(text), &e)
			s, d = e.Src, e.Dst
		}
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", line, err)
		}
		src = append(src, s)
		dst = append(dst, d)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// bodyEdges is the number of edges a body holds as the format counts them:
// 8-byte records, or NDJSON lines that are not blank.
func bodyEdges(body []byte, ndjson bool) int {
	if !ndjson {
		return len(body) / 8
	}
	n := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// FuzzDecodeEdges holds both decoders to their oracles on any body: the
// same edges, or the same error, with a read limit's *http.MaxBytesError
// passed through unwrapped. maxSel puts maxEdges just under, at or just
// over the body's edge count; hintSel gives the size hint exact, short,
// long or unknown; limit, when not 0, caps the body as
// http.MaxBytesReader does (limit−1 bytes).
func FuzzDecodeEdges(f *testing.F) {
	pairs := ndjsonBody(5)
	f.Add(binaryBody(3), false, uint8(1), uint8(0), uint16(0))
	f.Add(binaryBody(3)[:20], false, uint8(2), uint8(1), uint16(0))
	f.Add(binaryBody(4), false, uint8(0), uint8(3), uint16(0))
	f.Add(binaryBody(4), false, uint8(2), uint8(2), uint16(20))
	f.Add([]byte{}, false, uint8(1), uint8(0), uint16(0))
	f.Add(pairs, true, uint8(1), uint8(0), uint16(0))
	f.Add(pairs, true, uint8(0), uint8(3), uint16(30))
	f.Add([]byte("[1,2]\n\n  [ 3 , 4 ]\r\n{\"src\":5,\"dst\":6}\n[4294967295,0]"), true, uint8(1), uint8(1), uint16(0))
	f.Add([]byte("[1,2]\n[4294967296,0]\n"), true, uint8(2), uint8(2), uint16(0))
	f.Add([]byte("[1,2]\n{\"src\":1}extra\n"), true, uint8(1), uint8(0), uint16(0))
	// Lines scanPair refuses but the pair parser accepts.
	f.Add([]byte("[1,\u00a02]\n[000000000001,2]\n"), true, uint8(1), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool, maxSel, hintSel uint8, limit uint16) {
		maxEdges := bodyEdges(body, ndjson) + int(maxSel%3) - 1
		size := []int64{int64(len(body)), int64(len(body) / 2), 2*int64(len(body)) + 100, -1}[hintSel%4]
		reader := func() io.Reader {
			if limit == 0 {
				return bytes.NewReader(body)
			}
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(limit-1))
		}
		contentType, oracle := ContentTypeBinary, oracleDecodeBinary
		if ndjson {
			contentType, oracle = ContentTypeNDJSON, oracleDecodeNDJSON
		}
		wantSrc, wantDst, wantErr := oracle(reader(), maxEdges)
		src, dst, err := decodeEdges(contentType, reader(), size, maxEdges)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("maxEdges %d, size %d, limit %d: error %v, want %v", maxEdges, size, limit, err, wantErr)
		}
		var tooLarge, wantTooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) != errors.As(wantErr, &wantTooLarge) || tooLarge != nil && err != error(tooLarge) {
			t.Fatalf("error %#v, want %#v passed through unwrapped", err, wantErr)
		}
		if !slices.Equal(src, wantSrc) || !slices.Equal(dst, wantDst) {
			t.Fatalf("decoded %d edges %v→%v, want %d %v→%v", len(src), src, dst, len(wantSrc), wantSrc, wantDst)
		}
	})
}
