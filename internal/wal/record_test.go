package wal

import (
	"bytes"
	"errors"
	"testing"
)

func mkRecord(lsn uint64, op uint8, n int) Record {
	r := Record{LSN: lsn, Batch: lsn * 10, Op: op}
	for i := 0; i < n; i++ {
		r.Src = append(r.Src, uint32(i))
		r.Dst = append(r.Dst, uint32(i*3+1))
	}
	return r
}

// decodeRecord decodes the frame at the start of b into a new record. It
// returns the record, the number of bytes consumed, and nil; or 0 consumed
// and frameAt's error.
func decodeRecord(b []byte) (Record, int, error) {
	p, n, err := frameAt(b)
	if err != nil {
		return Record{}, 0, err
	}
	var r Record
	decodeInto(p, &r)
	return r, n, nil
}

func TestRecordRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		want := mkRecord(42, OpDelete, n)
		buf := appendRecord(nil, &want)
		got, consumed, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if consumed != len(buf) {
			t.Fatalf("n=%d: consumed %d of %d", n, consumed, len(buf))
		}
		if got.LSN != want.LSN || got.Batch != want.Batch || got.Op != want.Op {
			t.Fatalf("n=%d: header mismatch: %+v vs %+v", n, got, want)
		}
		for i := range want.Src {
			if got.Src[i] != want.Src[i] || got.Dst[i] != want.Dst[i] {
				t.Fatalf("n=%d: edge %d mismatch", n, i)
			}
		}
	}
}

func TestScanSegmentCleanPrefix(t *testing.T) {
	var buf []byte
	for lsn := uint64(1); lsn <= 5; lsn++ {
		r := mkRecord(lsn, OpInsert, 3)
		buf = appendRecord(buf, &r)
	}
	clean := len(buf)

	// Truncated tail: every cut inside the last record yields the same
	// clean prefix and ErrTorn, never a panic or a bogus record.
	r6 := mkRecord(6, OpInsert, 4)
	full := appendRecord(append([]byte(nil), buf...), &r6)
	for cut := clean + 1; cut < len(full); cut++ {
		var got []uint64
		consumed, err := ScanSegment(full[:cut], func(r Record) error {
			got = append(got, r.LSN)
			return nil
		})
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d: want ErrTorn, got %v", cut, err)
		}
		if consumed != clean || len(got) != 5 {
			t.Fatalf("cut=%d: consumed=%d records=%d", cut, consumed, len(got))
		}
	}

	// Bit flips anywhere in the payload of the last record: CRC must
	// reject, clean prefix must be preserved.
	for bit := clean; bit < len(full); bit += 5 {
		flipped := append([]byte(nil), full...)
		flipped[bit] ^= 0x40
		consumed, err := ScanSegment(flipped, func(Record) error { return nil })
		if err == nil && consumed == len(flipped) {
			// A flip in the length field can read as torn rather than
			// corrupt, but it can never scan cleanly to the end.
			t.Fatalf("bit@%d: corrupt segment scanned clean", bit)
		}
		if consumed > clean && err != nil {
			t.Fatalf("bit@%d: consumed %d beyond clean prefix %d (err=%v)", bit, consumed, clean, err)
		}
	}

	// Garbage appended after valid records.
	garbage := append(append([]byte(nil), buf...), bytes.Repeat([]byte{0xA5}, 37)...)
	consumed, err := ScanSegment(garbage, func(Record) error { return nil })
	if err == nil {
		t.Fatal("garbage tail scanned clean")
	}
	if consumed != clean {
		t.Fatalf("garbage tail: consumed=%d want %d", consumed, clean)
	}
}

func TestDecodeRecordHostileInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 0, 0, 0, 0, 0, 0, 0},             // zero-length payload: below fixed size
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // huge length
		bytes.Repeat([]byte{0x00}, 64),       // zeros
		bytes.Repeat([]byte{0xff}, 64),       // ones
		append([]byte{21, 0, 0, 0, 1, 2, 3, 4}, make([]byte, 21)...), // right-sized, bad crc
	}
	for i, b := range cases {
		if _, _, err := decodeRecord(b); err == nil {
			t.Fatalf("case %d: hostile input decoded without error", i)
		}
	}
}
