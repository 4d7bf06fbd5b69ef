package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lsgraph/internal/parallel"
)

// Checkpoint directory naming: ckpt-<seq> with a 16-digit decimal
// sequence number, so lexical order is publish order. A trailing ".tmp"
// marks an unpublished (crashed or in-progress) write.
const (
	ckptPrefix    = "ckpt-"
	ckptTmpSuffix = ".tmp"
	manifestName  = "MANIFEST.json"
	// manifestFormat is bumped on incompatible layout changes; loaders
	// reject unknown formats rather than guessing.
	manifestFormat = 1
)

// Checkpoint is one durable snapshot of the store: the logical vertex
// bound, the partition layout, per-shard local CSRs, and the per-shard-log
// watermarks that tell replay which records the snapshot already reflects.
type Checkpoint struct {
	// N is the logical vertex-space bound at the pinned view.
	N uint32
	// Starts are the partition map's range starts (Starts[i] is shard i's
	// first vertex). Informational: recovery may rebuild with a different
	// layout; edges are layout-independent.
	Starts []uint32
	// Watermarks[d] is the highest LSN of shard log directory d whose
	// record is reflected in this checkpoint. len(Watermarks) covers every
	// log directory on disk at checkpoint time, which can exceed
	// len(Shards) after a shard-count change.
	Watermarks []uint64
	// Shards are the pinned per-shard local CSR snapshots, in shard order.
	Shards []ShardSnap
}

// Watermark returns the highest LSN of shard log directory dir reflected
// in the checkpoint: 0 for a directory it does not cover, from which
// everything replays.
func (ck *Checkpoint) Watermark(dir int) uint64 {
	if dir < len(ck.Watermarks) {
		return ck.Watermarks[dir]
	}
	return 0
}

// ShardSnap is one shard's pinned local CSR: offsets indexed by slot
// within the shard, adjacency holding global vertex IDs.
type ShardSnap struct {
	// Base is the shard's first global vertex ID at the pinned view.
	Base uint32
	// Offs is the CSR offset array, len = vertices+1.
	Offs []uint64
	// Adj is the concatenated adjacency, len = Offs[len(Offs)-1].
	Adj []uint32
}

// manifest is the JSON index of a checkpoint directory; the shard CSR
// files it names are validated against the recorded CRCs on load.
type manifest struct {
	Format     int             `json:"format"`
	N          uint32          `json:"n"`
	Starts     []uint32        `json:"starts"`
	Watermarks []uint64        `json:"watermarks"`
	Shards     []manifestShard `json:"shards"`
}

type manifestShard struct {
	File     string `json:"file"`
	CRC      uint32 `json:"crc"`
	Base     uint32 `json:"base"`
	Vertices uint32 `json:"vertices"`
	Edges    uint64 `json:"edges"`
}

// ckptDirName formats the published directory name for sequence seq.
func ckptDirName(seq uint64) string { return fmt.Sprintf("%s%016d", ckptPrefix, seq) }

// parseCkptDir extracts the sequence from a published checkpoint dir
// name; tmp dirs and foreign names return ok=false.
func parseCkptDir(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || strings.HasSuffix(name, ckptTmpSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(name, ckptPrefix), 10, 64)
	return seq, err == nil
}

// listCheckpoints returns published checkpoint sequences, ascending.
func listCheckpoints(fsys FS, root string) []uint64 {
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseCkptDir(e.Name()); ok && e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	return seqs
}

// shardSnapName formats the CSR file name for shard i.
func shardSnapName(i int) string { return fmt.Sprintf("shard-%03d.snap", i) }

// encodeShardSnap serializes one shard CSR: offs as uint64 LE then adj as
// uint32 LE. Sizes come from the manifest, integrity from its CRC.
func encodeShardSnap(sh *ShardSnap) []byte {
	b := make([]byte, 8*len(sh.Offs)+4*len(sh.Adj))
	off := 0
	for _, v := range sh.Offs {
		binary.LittleEndian.PutUint64(b[off:off+8], v)
		off += 8
	}
	for _, v := range sh.Adj {
		binary.LittleEndian.PutUint32(b[off:off+4], v)
		off += 4
	}
	return b
}

// decodeShardSnap parses a shard CSR file of nv vertices and m edges in a
// vertex space of n, validating everything recovery relies on: the byte
// length, offsets that are a monotone cover of the adjacency, a vertex
// range inside [0, n), and every run strictly ascending with IDs below n.
// A CRC only proves the file is what was written; these checks prove it is
// a CSR the engine can load, so a bad one falls back to the predecessor
// instead of panicking inside recovery.
func decodeShardSnap(b []byte, base, nv uint32, m uint64, n uint32) (ShardSnap, error) {
	// The edge count comes from the manifest: bound it by the file before
	// multiplying, so a hostile one can neither wrap the size check nor
	// size the allocations below.
	if want := 8*(uint64(nv)+1) + 4*m; m > uint64(len(b))/4 || uint64(len(b)) != want {
		return ShardSnap{}, fmt.Errorf("%w: shard snap is %d bytes, manifest says %d vertices and %d edges", ErrCorrupt, len(b), nv, m)
	}
	if nv > 0 && uint64(base)+uint64(nv) > uint64(n) {
		return ShardSnap{}, fmt.Errorf("%w: shard snap covers vertices [%d,%d) of %d", ErrCorrupt, base, uint64(base)+uint64(nv), n)
	}
	sh := ShardSnap{Base: base, Offs: make([]uint64, nv+1), Adj: make([]uint32, m)}
	for i := range sh.Offs {
		sh.Offs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if sh.Offs[0] != 0 || sh.Offs[nv] != m {
		return ShardSnap{}, fmt.Errorf("%w: shard snap offsets inconsistent", ErrCorrupt)
	}
	adj := b[8*len(sh.Offs):]
	for v := 0; v < int(nv); v++ {
		lo, hi := sh.Offs[v], sh.Offs[v+1]
		if hi < lo || hi > m {
			return ShardSnap{}, fmt.Errorf("%w: shard snap offsets not monotone", ErrCorrupt)
		}
		// Ascending makes a run's last ID its largest, so that one alone is
		// held to the bound.
		run, raw := sh.Adj[lo:hi], adj[4*lo:4*hi]
		for i := range run {
			run[i] = binary.LittleEndian.Uint32(raw[4*i:])
			if i > 0 && run[i] <= run[i-1] {
				return ShardSnap{}, fmt.Errorf("%w: shard snap run of vertex %d not strictly ascending", ErrCorrupt, base+uint32(v))
			}
		}
		if len(run) > 0 && run[len(run)-1] >= n {
			return ShardSnap{}, fmt.Errorf("%w: shard snap run of vertex %d names vertex %d of %d", ErrCorrupt, base+uint32(v), run[len(run)-1], n)
		}
	}
	return sh, nil
}

// WriteCheckpoint publishes ck atomically: shard files and manifest are
// written into a ".tmp" directory, fsynced, and renamed into place; a
// crash at any point leaves either the previous checkpoint or the new one,
// never a half state. Older checkpoints beyond the newest two are pruned.
// The caller (serve layer) rotates and GCs log segments only after a nil
// return, so a crash between rename and return leaves the log intact for
// the next recovery.
func (l *Log) WriteCheckpoint(ck *Checkpoint) error {
	root := filepath.Join(l.dir, "checkpoint")
	if err := l.fs.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("wal: checkpoint root: %w", err)
	}
	var seq uint64 = 1
	if seqs := listCheckpoints(l.fs, root); len(seqs) > 0 {
		seq = seqs[len(seqs)-1] + 1
	}
	tmp := filepath.Join(root, ckptDirName(seq)+ckptTmpSuffix)
	l.fs.RemoveAll(tmp)
	if err := l.fs.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("wal: checkpoint tmp: %w", err)
	}
	m := manifest{
		Format:     manifestFormat,
		N:          ck.N,
		Starts:     append([]uint32(nil), ck.Starts...),
		Watermarks: append([]uint64(nil), ck.Watermarks...),
	}
	for i := range ck.Shards {
		sh := &ck.Shards[i]
		data := encodeShardSnap(sh)
		name := shardSnapName(i)
		if err := writeFileSync(l.fs, filepath.Join(tmp, name), data); err != nil {
			return err
		}
		m.Shards = append(m.Shards, manifestShard{
			File:     name,
			CRC:      crc32.Checksum(data, crcTable),
			Base:     sh.Base,
			Vertices: uint32(len(sh.Offs) - 1),
			Edges:    uint64(len(sh.Adj)),
		})
	}
	mb, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := writeFileSync(l.fs, filepath.Join(tmp, manifestName), mb); err != nil {
		return err
	}
	if err := l.fs.SyncDir(tmp); err != nil {
		return fmt.Errorf("wal: sync checkpoint dir: %w", err)
	}
	if err := l.fs.Rename(tmp, filepath.Join(root, ckptDirName(seq))); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(root); err != nil {
		return fmt.Errorf("wal: sync checkpoint root: %w", err)
	}
	// Prune: keep the new checkpoint and its predecessor (the predecessor
	// is the fallback if the new one is later found damaged), drop the
	// rest plus any stray tmp dirs.
	entries, _ := l.fs.ReadDir(root)
	for _, e := range entries {
		if old, ok := parseCkptDir(e.Name()); (ok && old+1 < seq) || strings.HasSuffix(e.Name(), ckptTmpSuffix) {
			l.fs.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
	return nil
}

// LoadLatestCheckpoint returns the newest checkpoint under dir that
// passes manifest, CRC and CSR validation. A damaged newest checkpoint
// falls back to its predecessor — the reason WriteCheckpoint retains two.
// (nil, nil) means no checkpoint was ever published. When published
// checkpoints exist but none validates, the error wraps ErrCorrupt and
// names the newest failure: segment GC has already removed the log those
// checkpoints covered, so opening on the WAL tail alone would serve a
// fraction of the graph as if it were all of it.
func LoadLatestCheckpoint(dir string) (*Checkpoint, error) {
	root := filepath.Join(dir, "checkpoint")
	seqs := listCheckpoints(osFS{}, root)
	var newest error
	for i := len(seqs) - 1; i >= 0; i-- {
		name := ckptDirName(seqs[i])
		ck, err := loadCheckpoint(filepath.Join(root, name))
		if err == nil {
			return ck, nil
		}
		if newest == nil {
			newest = fmt.Errorf("%s: %w", name, err)
		}
	}
	if newest != nil {
		return nil, fmt.Errorf("%w: none of %d published checkpoints is loadable (newest, %v)", ErrCorrupt, len(seqs), newest)
	}
	return nil, nil
}

// fallbackCheckpoint returns the watermarks-only view of the newest
// published checkpoint but one under dir — the fallback LoadLatestCheckpoint
// turns to when the newest is damaged — or nil when there is none or its
// manifest cannot be read (then it is no fallback, and constrains nothing).
// Its shard files are not validated here: the cover is for one damaged
// checkpoint at a time (DESIGN.md "Durability & recovery").
func fallbackCheckpoint(dir string) *Checkpoint {
	root := filepath.Join(dir, "checkpoint")
	seqs := listCheckpoints(osFS{}, root)
	if len(seqs) < 2 {
		return nil
	}
	var m manifest
	mb, err := os.ReadFile(filepath.Join(root, ckptDirName(seqs[len(seqs)-2]), manifestName))
	if err != nil || json.Unmarshal(mb, &m) != nil {
		return nil
	}
	return &Checkpoint{Watermarks: m.Watermarks}
}

// loadCheckpoint reads and validates one published checkpoint directory.
func loadCheckpoint(path string) (*Checkpoint, error) {
	mb, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("wal: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("%w: manifest format %d (want %d)", ErrCorrupt, m.Format, manifestFormat)
	}
	ck := &Checkpoint{N: m.N, Starts: m.Starts, Watermarks: m.Watermarks}
	var end uint64 // one past the last vertex any shard so far covers
	for _, ms := range m.Shards {
		if ms.File != filepath.Base(ms.File) {
			return nil, fmt.Errorf("%w: manifest names file outside checkpoint dir", ErrCorrupt)
		}
		if ms.Vertices > 0 {
			// Shards are written in vertex order over disjoint ranges; two
			// that overlap would load the same vertex twice.
			if uint64(ms.Base) < end {
				return nil, fmt.Errorf("%w: shard snap %s starts at vertex %d, inside its predecessor's range", ErrCorrupt, ms.File, ms.Base)
			}
			end = uint64(ms.Base) + uint64(ms.Vertices)
		}
	}
	// The shard files are read, CRC-checked and decoded side by side, by as
	// many workers as there are processors; the first refusal in shard order
	// is the one reported.
	if len(m.Shards) > 0 {
		ck.Shards = make([]ShardSnap, len(m.Shards))
	}
	errs := make([]error, len(m.Shards))
	p := min(len(m.Shards), parallel.Procs)
	parallel.Workers(p, func(w int) {
		for i := w; i < len(m.Shards); i += p {
			ms := &m.Shards[i]
			data, err := os.ReadFile(filepath.Join(path, ms.File))
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("wal: read shard snap: %w", err)
			case crc32.Checksum(data, crcTable) != ms.CRC:
				errs[i] = fmt.Errorf("%w: shard snap %s crc mismatch", ErrCorrupt, ms.File)
			default:
				ck.Shards[i], errs[i] = decodeShardSnap(data, ms.Base, ms.Vertices, ms.Edges, m.N)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// writeFileSync writes data to a new file at path and fsyncs it before
// closing.
func writeFileSync(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", filepath.Base(path), err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
