// Package graphio reads and writes the edge-list and snapshot formats the
// tools consume: plain-text "src dst" lines (SNAP-style, with '#'/'%'
// comments) and a compact binary CSR snapshot for fast reload of large
// graphs.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
)

// ReadEdgeList parses a text edge list: one "src dst" pair of decimal IDs
// per line, blank lines and lines starting with '#' or '%' ignored.
func ReadEdgeList(r io.Reader) ([]gen.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var es []gen.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'src dst', got %q", lineNo, line)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad src %q", lineNo, fields[0])
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad dst %q", lineNo, fields[1])
		}
		es = append(es, gen.Edge{Src: uint32(s), Dst: uint32(d)})
	}
	return es, sc.Err()
}

// WriteEdgeList writes edges as text, one "src dst" per line.
func WriteEdgeList(w io.Writer, es []gen.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range es {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csrMagic identifies the binary snapshot format ("LSG1").
const csrMagic = 0x4c534731

// WriteCSR serializes a graph snapshot in binary CSR form:
//
//	magic  uint32
//	n      uint32           vertex count
//	m      uint64           directed edge count
//	offs   (n+1) × uint64   prefix-sum offsets
//	adj    m × uint32       concatenated sorted neighbor lists
//
// All fields are little-endian.
func WriteCSR(w io.Writer, g engine.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], csrMagic)
	binary.LittleEndian.PutUint32(hdr[4:], n)
	binary.LittleEndian.PutUint64(hdr[8:], g.NumEdges())
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var off uint64
	var b8 [8]byte
	for v := uint32(0); v <= n; v++ {
		binary.LittleEndian.PutUint64(b8[:], off)
		if _, err := bw.Write(b8[:]); err != nil {
			return err
		}
		if v < n {
			off += uint64(g.Degree(v))
		}
	}
	if off != g.NumEdges() {
		return fmt.Errorf("graphio: degree sum %d != edge count %d", off, g.NumEdges())
	}
	var werr error
	var b4 [4]byte
	for v := uint32(0); v < n && werr == nil; v++ {
		engine.ForEachNeighbor(g, v, func(u uint32) {
			if werr != nil {
				return
			}
			binary.LittleEndian.PutUint32(b4[:], u)
			_, werr = bw.Write(b4[:])
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// CSR is a deserialized binary snapshot.
type CSR struct {
	N    uint32
	Offs []uint64
	Adj  []uint32
}

// NumEdges returns the directed edge count.
func (c *CSR) NumEdges() uint64 { return uint64(len(c.Adj)) }

// Neighbors returns v's sorted neighbor slice (aliasing internal storage).
func (c *CSR) Neighbors(v uint32) []uint32 { return c.Adj[c.Offs[v]:c.Offs[v+1]] }

// Edges flattens the snapshot back into an edge list.
func (c *CSR) Edges() []gen.Edge {
	es := make([]gen.Edge, 0, len(c.Adj))
	for v := uint32(0); v < c.N; v++ {
		for _, u := range c.Neighbors(v) {
			es = append(es, gen.Edge{Src: v, Dst: u})
		}
	}
	return es
}

// ReadCSR deserializes a binary snapshot written by WriteCSR. It refuses a
// header and body that disagree, non-monotone offsets, and any neighbor
// run that is not strictly ascending with IDs below the vertex count.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graphio: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != csrMagic {
		return nil, fmt.Errorf("graphio: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	// Declared counts from a corrupt header must not drive allocation:
	// read incrementally, so memory grows only with bytes actually present.
	c := &CSR{N: n}
	var err error
	if c.Offs, err = readUint64s(br, uint64(n)+1); err != nil {
		return nil, fmt.Errorf("graphio: short offsets: %w", err)
	}
	if c.Offs[n] != m {
		return nil, fmt.Errorf("graphio: offsets end at %d, want %d", c.Offs[n], m)
	}
	for i := 1; i <= int(n); i++ {
		if c.Offs[i] < c.Offs[i-1] {
			return nil, fmt.Errorf("graphio: offsets not monotone at %d", i)
		}
	}
	adjRaw, err := readUint64sAs32(br, m)
	if err != nil {
		return nil, fmt.Errorf("graphio: short adjacency: %w", err)
	}
	c.Adj = adjRaw
	// Neighbors documents every run as sorted, so each must be strictly
	// ascending (no repeats) and below n, as the checkpoint decoder holds
	// a shard's runs to.
	for v := uint32(0); v < n; v++ {
		run := c.Neighbors(v)
		for i, u := range run {
			if u >= n {
				return nil, fmt.Errorf("graphio: neighbor %d of vertex %d out of range", u, v)
			}
			if i > 0 && u <= run[i-1] {
				return nil, fmt.Errorf("graphio: neighbors of vertex %d not strictly ascending", v)
			}
		}
	}
	return c, nil
}

// readChunk is the incremental read granularity: big enough to amortize
// calls, small enough that a corrupt count wastes at most one chunk.
const readChunk = 1 << 16

// readUint64s reads count little-endian uint64 values, growing the result
// incrementally.
func readUint64s(r io.Reader, count uint64) ([]uint64, error) {
	out := make([]uint64, 0, min64(count, readChunk))
	buf := make([]byte, 8*readChunk)
	for uint64(len(out)) < count {
		want := count - uint64(len(out))
		if want > readChunk {
			want = readChunk
		}
		b := buf[:8*want]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out, nil
}

// readUint64sAs32 reads count little-endian uint32 values incrementally.
func readUint64sAs32(r io.Reader, count uint64) ([]uint32, error) {
	out := make([]uint32, 0, min64(count, readChunk))
	buf := make([]byte, 4*readChunk)
	for uint64(len(out)) < count {
		want := count - uint64(len(out))
		if want > readChunk {
			want = readChunk
		}
		b := buf[:4*want]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
