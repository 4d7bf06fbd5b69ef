package wal_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/wal"
)

// fuzzCheckpoint is the sound checkpoint every FuzzCheckpointLoad input
// mutates: 12 vertices over two shards, with empty, inline-sized and
// longer runs.
func fuzzCheckpoint() *wal.Checkpoint {
	return &wal.Checkpoint{
		N:          12,
		Starts:     []uint32{0, 6},
		Watermarks: []uint64{3, 4},
		Shards: []wal.ShardSnap{
			{Base: 0, Offs: []uint64{0, 3, 3, 4, 13, 13, 14}, Adj: []uint32{1, 5, 11, 0, 0, 2, 3, 4, 6, 8, 9, 10, 11, 7}},
			{Base: 6, Offs: []uint64{0, 0, 2, 2, 2, 3, 5}, Adj: []uint32{0, 6, 11, 1, 2}},
		},
	}
}

// FuzzCheckpointLoad mutates a published checkpoint — manifest fields and
// shard file bytes, with every CRC recomputed so the damage gets past the
// integrity check to the validation behind it — and checks the contract
// recovery rests on: loading never panics; a refusal is ErrCorrupt; and
// whatever loads is a CSR the engine accepts as is, at any shard count,
// into a graph that passes core.Paged.CheckInvariants.
//
// The input is a shard-count byte, then five-byte mutations (kind, shard,
// b, c, d): set the manifest's vertex bound, a shard's base, vertex or edge
// count; flip a file byte; overwrite an adjacency or offset entry; cut or
// extend a file.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	l, err := wal.OpenLog(dir, 2, 0, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.WriteCheckpoint(fuzzCheckpoint()); err != nil {
		f.Fatal(err)
	}
	l.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint", "ckpt-*"))
	if len(ckpts) != 1 {
		f.Fatalf("published checkpoints: %v", ckpts)
	}
	var base wal.Manifest
	mb, err := os.ReadFile(filepath.Join(ckpts[0], wal.ManifestName))
	if err != nil || json.Unmarshal(mb, &base) != nil {
		f.Fatalf("read manifest: %v", err)
	}
	files := make([][]byte, len(base.Shards))
	for i, ms := range base.Shards {
		if files[i], err = os.ReadFile(filepath.Join(ckpts[0], ms.File)); err != nil {
			f.Fatal(err)
		}
	}

	// The named seeds are under testdata/fuzz/FuzzCheckpointLoad; these add
	// the file-level damage.
	f.Add([]byte{2, 6, 0, 1, 9, 0, 3, 0, 200, 0, 0})  // an offset moved, an edge count the file cannot hold
	f.Add([]byte{0, 7, 1, 1, 0, 5, 2, 1, 7, 0, 0})    // a file cut short, a vertex count changed
	f.Add([]byte{2, 4, 0, 0, 60, 255, 4, 1, 0, 3, 1}) // byte flips in both files

	f.Fuzz(func(t *testing.T, data []byte) {
		shards := 1
		if len(data) > 0 {
			shards = []int{1, 2, 4}[int(data[0])%3]
			data = data[1:]
		}
		m := base
		m.Shards = slices.Clone(base.Shards)
		fs := make([][]byte, len(files))
		for i := range files {
			fs[i] = slices.Clone(files[i])
		}
		for ; len(data) >= 5; data = data[5:] {
			k, b, c, d := data[0]%8, data[2], data[3], data[4]
			i := int(data[1]) % len(fs)
			sh, file := &m.Shards[i], fs[i]
			adj := 8 * (len(fuzzCheckpoint().Shards[i].Offs)) // where the file's adjacency starts
			switch k {
			case 0:
				m.N = uint32(b)<<8 | uint32(c)
			case 1:
				sh.Base = uint32(b)
			case 2:
				sh.Vertices = uint32(b)
			case 3:
				sh.Edges = uint64(b)
			case 4:
				if len(file) > 0 {
					file[(int(b)<<8|int(c))%len(file)] ^= d | 1
				}
			case 5:
				if at := adj + 4*(int(b)%16); at+4 <= len(file) {
					binary.LittleEndian.PutUint32(file[at:], uint32(c))
				}
			case 6:
				if at := 8 * (int(b) % 8); at+8 <= len(file) {
					binary.LittleEndian.PutUint64(file[at:], uint64(c))
				}
			case 7:
				if b%2 == 1 {
					fs[i] = file[:len(file)-int(d)%(len(file)+1)]
				} else {
					fs[i] = append(file, make([]byte, d%64)...)
				}
			}
		}

		path := t.TempDir()
		for i := range m.Shards {
			m.Shards[i].CRC = wal.Checksum(fs[i])
			if err := os.WriteFile(filepath.Join(path, m.Shards[i].File), fs[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		mb, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, wal.ManifestName), mb, 0o644); err != nil {
			t.Fatal(err)
		}

		ck, err := wal.LoadCheckpoint(path)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		g := core.NewPaged(ck.N, shards, 2)
		var edges uint64
		for i := range ck.Shards {
			sh := &ck.Shards[i]
			if err := g.LoadCSR(sh.Base, sh.Offs, sh.Adj); err != nil {
				t.Fatalf("accepted checkpoint, refused by the engine: shard %d: %v", i, err)
			}
			edges += uint64(len(sh.Adj))
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var loaded uint64
		for i := 0; i < shards; i++ {
			loaded += g.Shard(i).NumEdges()
		}
		if loaded != edges {
			t.Fatalf("loaded %d edges of %d", loaded, edges)
		}
	})
}
