package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Op codes carried by a Record: the two durable mutations the serving
// layer acknowledges. Flush sentinels and rebalance control entries are
// not logged — the former are barriers, the latter pure layout (recovery
// rebuilds layout from scratch).
const (
	// OpInsert marks a batch of edge insertions.
	OpInsert uint8 = 0
	// OpDelete marks a batch of edge deletions.
	OpDelete uint8 = 1
)

// Frame layout: an 8-byte header — payload length (uint32 LE) then
// CRC32-C of the payload (uint32 LE) — followed by the payload:
//
//	lsn uint64 | batch uint64 | op uint8 | count uint32 | src[count] uint32 | dst[count] uint32
//
// all little-endian. The CRC covers the payload only; a length field
// corrupted upward reads as a torn tail (frame runs past EOF), corrupted
// downward the CRC fails — either way the scan stops at the clean prefix.
const (
	frameHeaderBytes = 8
	recordFixedBytes = 8 + 8 + 1 + 4
	// maxRecordPayload bounds a decoded payload length so a corrupt length
	// field cannot drive a huge allocation: 64Mi edges per shard record is
	// far beyond anything the serving layer enqueues as one batch.
	maxRecordPayload = recordFixedBytes + 8*(64<<20)
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one logged shard batch.
type Record struct {
	// LSN is the record's global log sequence number: assigned from one
	// atomic counter across all shards, so sorting records from every
	// shard's log by LSN recovers a valid global apply order.
	LSN uint64
	// Batch is the flight-recorder batch ID of the enqueue that produced
	// the record (0 when tracing was off).
	Batch uint64
	// Op is OpInsert or OpDelete.
	Op uint8
	// Src and Dst are the batch's edge endpoints, parallel slices.
	Src, Dst []uint32
}

// appendRecord appends r's framed encoding to buf and returns it.
func appendRecord(buf []byte, r *Record) []byte {
	payload := recordFixedBytes + 8*len(r.Src)
	start := len(buf)
	total := frameHeaderBytes + payload
	if cap(buf)-start >= total {
		buf = buf[:start+total]
	} else {
		buf = append(buf, make([]byte, total)...)
	}
	b := buf[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	p := b[frameHeaderBytes:]
	binary.LittleEndian.PutUint64(p[0:8], r.LSN)
	binary.LittleEndian.PutUint64(p[8:16], r.Batch)
	p[16] = r.Op
	binary.LittleEndian.PutUint32(p[17:21], uint32(len(r.Src)))
	off := recordFixedBytes
	for _, v := range r.Src {
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		off += 4
	}
	for _, v := range r.Dst {
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		off += 4
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(p, crcTable))
	return buf
}

// frameAt checks the frame at the start of b — its length, its CRC, and a
// count and op the payload can hold — without decoding its edges. It
// returns the payload and the frame's length; or 0 and ErrTorn (the frame
// runs past the end of b) or ErrCorrupt (a check failed). It never panics
// on arbitrary input.
func frameAt(b []byte) ([]byte, int, error) {
	if len(b) < frameHeaderBytes {
		return nil, 0, ErrTorn
	}
	payload, err := payloadLen(b)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < frameHeaderBytes+payload {
		return nil, 0, ErrTorn
	}
	p := b[frameHeaderBytes : frameHeaderBytes+payload]
	if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errCRC
	}
	if err := checkFixed(p, payload); err != nil {
		return nil, 0, err
	}
	return p, frameHeaderBytes + payload, nil
}

// errCRC is the ErrCorrupt of a frame whose payload fails its CRC.
var errCRC = fmt.Errorf("%w: crc mismatch", ErrCorrupt)

// payloadLen is the payload length a frame header states, if a record can
// have it.
func payloadLen(header []byte) (int, error) {
	payload := int(binary.LittleEndian.Uint32(header[0:4]))
	if payload < recordFixedBytes || payload > maxRecordPayload {
		return 0, fmt.Errorf("%w: payload length %d out of range", ErrCorrupt, payload)
	}
	return payload, nil
}

// checkFixed checks the fixed fields at the start of a payload of the given
// length: a count that fills it exactly, and a known op.
func checkFixed(fixed []byte, payload int) error {
	if count := int(binary.LittleEndian.Uint32(fixed[17:21])); payload != recordFixedBytes+8*count {
		return fmt.Errorf("%w: count %d inconsistent with payload length %d", ErrCorrupt, count, payload)
	}
	if op := fixed[16]; op != OpInsert && op != OpDelete {
		return fmt.Errorf("%w: unknown op %d", ErrCorrupt, op)
	}
	return nil
}

// payloadLSN is the LSN of a payload frameAt returned.
func payloadLSN(p []byte) uint64 { return binary.LittleEndian.Uint64(p[0:8]) }

// decodeInto decodes a payload frameAt returned into r, reusing the capacity
// of r's edge slices.
func decodeInto(p []byte, r *Record) {
	count := int(binary.LittleEndian.Uint32(p[17:21]))
	r.LSN, r.Batch, r.Op = payloadLSN(p), binary.LittleEndian.Uint64(p[8:16]), p[16]
	if cap(r.Src) < count {
		r.Src, r.Dst = make([]uint32, count), make([]uint32, count)
	}
	r.Src, r.Dst = r.Src[:count], r.Dst[:count]
	off := recordFixedBytes
	for i := range r.Src {
		r.Src[i] = binary.LittleEndian.Uint32(p[off : off+4])
		off += 4
	}
	for i := range r.Dst {
		r.Dst[i] = binary.LittleEndian.Uint32(p[off : off+4])
		off += 4
	}
}

// ScanSegment decodes records from data in order, calling fn for each,
// and returns the clean-prefix length: the byte offset of the first torn
// or corrupt frame, or len(data) when every frame decoded. err is nil on
// a clean scan, ErrTorn/ErrCorrupt (wrapped with offset context) when the
// tail is bad, or fn's error (scanning stops where fn failed). The
// returned prefix is always safe to truncate to: every byte before it is
// a whole, CRC-valid record.
func ScanSegment(data []byte, fn func(Record) error) (int, error) {
	sr := segmentReader{win: make([]byte, min(len(data), scanWindow))}
	sr.reset(bytes.NewReader(data), len(data))
	for {
		_, p, err := sr.next(nil)
		if err == io.EOF {
			return sr.off, nil
		}
		if err != nil {
			return sr.off, err
		}
		if fn != nil {
			var r Record
			decodeInto(p, &r)
			if err := fn(r); err != nil {
				return sr.off - frameHeaderBytes - len(p), err
			}
		}
	}
}

// scanWindow is the bytes a segmentReader reads at a time.
const scanWindow = 128 << 10

// segmentReader reads a segment's frames in order through a window it keeps
// from one segment to the next, so checking a frame costs its bytes' CRC and
// allocates nothing. Only a frame the caller reads whole, and that is larger
// than the window, grows it.
type segmentReader struct {
	win    []byte
	lo, hi int // win[lo:hi] is read and not yet consumed
	r      io.Reader
	size   int // the segment's length
	off    int // its offset of win[lo]: the clean prefix so far
}

// reset starts reading a segment of size bytes from r.
func (s *segmentReader) reset(r io.Reader, size int) {
	if s.win == nil {
		s.win = make([]byte, scanWindow)
	}
	s.r, s.size, s.off, s.lo, s.hi = r, size, 0, 0, 0
}

// next reads the next frame and returns its LSN and payload, which aliases
// the window until the next call; io.EOF at the segment's end; ErrTorn or
// ErrCorrupt, wrapped with the frame's offset, for a bad frame — s.off is
// then the clean prefix — or an error reading the segment, which is neither.
// A frame whose LSN covered reports covered is checked without being held:
// its payload streams through the CRC a window at a time, and next returns
// it as nil.
func (s *segmentReader) next(covered func(lsn uint64) bool) (uint64, []byte, error) {
	const head = frameHeaderBytes + recordFixedBytes
	for s.off < s.size {
		if s.hi-s.lo < head && head <= s.size-s.off {
			if err := s.fill(head); err != nil {
				return 0, nil, err
			}
		}
		if b := s.win[s.lo:s.hi]; covered != nil && len(b) >= head {
			lsn := payloadLSN(b[frameHeaderBytes:])
			if plen, err := payloadLen(b); err == nil && frameHeaderBytes+plen <= s.size-s.off && covered(lsn) {
				if err := s.skim(plen); err != nil {
					return 0, nil, fmt.Errorf("at offset %d: %w", s.off, err)
				}
				s.off += frameHeaderBytes + plen
				return lsn, nil, nil
			}
		}
		p, n, err := frameAt(s.win[s.lo:s.hi])
		if errors.Is(err, ErrTorn) {
			// Torn in the window may be whole in the file: read up to the
			// frame's end when the file holds it (frameAt has bounded its length).
			want := frameHeaderBytes
			if s.hi-s.lo >= frameHeaderBytes {
				want += int(binary.LittleEndian.Uint32(s.win[s.lo:]))
			}
			if want > s.hi-s.lo && want <= s.size-s.off {
				if err := s.fill(want); err != nil {
					return 0, nil, err
				}
				continue
			}
		}
		if err != nil {
			return 0, nil, fmt.Errorf("at offset %d: %w", s.off, err)
		}
		s.lo += n
		s.off += n
		return payloadLSN(p), p, nil
	}
	return 0, nil, io.EOF
}

// skim checks and consumes the frame at the window's start, whose payload of
// plen bytes the segment holds, without holding it whole: fixed fields
// first, then the CRC, a window at a time.
func (s *segmentReader) skim(plen int) error {
	b := s.win[s.lo:]
	if err := checkFixed(b[frameHeaderBytes:], plen); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	s.lo += frameHeaderBytes
	var crc uint32
	for left := plen; left > 0; {
		if s.hi == s.lo {
			if err := s.fill(min(left, len(s.win))); err != nil {
				return err
			}
		}
		k := min(left, s.hi-s.lo)
		crc = crc32.Update(crc, crcTable, s.win[s.lo:s.lo+k])
		s.lo, left = s.lo+k, left-k
	}
	if crc != want {
		return errCRC
	}
	return nil
}

// fill reads the segment until the window holds n unconsumed bytes, moving
// them to its front, or growing it, when they would not fit behind lo.
func (s *segmentReader) fill(n int) error {
	if s.lo+n > len(s.win) {
		w := s.win
		if n > len(w) {
			w = make([]byte, max(n, 2*len(w)))
		}
		s.hi = copy(w, s.win[s.lo:s.hi])
		s.win, s.lo = w, 0
	}
	for s.hi-s.lo < n {
		k, err := s.r.Read(s.win[s.hi:])
		s.hi += k
		if err != nil && s.hi-s.lo < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the segment was shorter than its size
			}
			return fmt.Errorf("wal: read segment: %w", err)
		}
	}
	return nil
}
