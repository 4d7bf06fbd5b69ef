package check

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"lsgraph/internal/wal"
)

// ErrFrozen is what every operation of a frozen FaultFS fails with.
var ErrFrozen = errors.New("check: file system frozen by fault injection")

// FileOp is a kind of wal.FS operation.
type FileOp int

// The kinds of FileOp.
const (
	OpOpen     FileOp = iota // FS.OpenFile
	OpWrite                  // File.Write
	OpSync                   // File.Sync
	OpClose                  // File.Close
	OpReadDir                // FS.ReadDir
	OpMkdir                  // FS.MkdirAll
	OpRename                 // FS.Rename
	OpRemove                 // FS.Remove and FS.RemoveAll
	OpTruncate               // FS.Truncate
	OpSyncDir                // FS.SyncDir
	NumFileOps
)

// String names op for test output.
func (op FileOp) String() string {
	return [NumFileOps]string{"open", "write", "sync", "close", "readdir", "mkdir", "rename", "remove", "truncate", "syncdir"}[op]
}

// Files narrows the paths a FaultPoint counts.
type Files int

// The Files a FaultPoint can count.
const (
	AnyFile         Files = iota
	SegmentFiles          // under <dir>/wal
	CheckpointFiles       // under <dir>/checkpoint
)

// FaultPoint names the Nth operation of kind Op on Files (Nth 0: none). At
// it a FaultFS freezes — that operation and every later one fail with
// ErrFrozen, which is what a kill -9 at that instant leaves on disk — or,
// when Err is set, fails that one operation with Err and lets the rest
// through: a non-crash fault such as ENOSPC or EIO.
type FaultPoint struct {
	Op    FileOp
	Files Files
	Nth   int
	// Torn makes a Write freeze after writing the first half of its bytes:
	// the torn tail a crash mid-write leaves.
	Torn bool
	Err  error
}

// OpCounts is the operations a FaultFS was asked for, by kind and files.
type OpCounts [NumFileOps][CheckpointFiles + 1]int

// FaultFS is a wal.FS over the OS that fails the operation its FaultPoint
// names and counts every operation up to a freeze. It is the WAL's
// durability oracle too: one Appender.Commit is one segment Write, so the
// records of the Writes that completed (decoded with wal.ScanSegment) are
// exactly those on disk, and the Write the fault refused or tore holds the
// one it lost.
type FaultFS struct {
	root  string
	point FaultPoint

	mu     sync.Mutex
	counts OpCounts
	fired  bool
	frozen bool
	acked  []wal.Record
	lost   *wal.Record
}

// NewFaultFS returns a FaultFS for the durability directory root.
func NewFaultFS(root string, p FaultPoint) *FaultFS { return &FaultFS{root: root, point: p} }

// Fired reports whether the fault point was reached.
func (f *FaultFS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Counts returns the operations asked for so far.
func (f *FaultFS) Counts() OpCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// Lost returns the record the fault point refused or tore, or nil.
func (f *FaultFS) Lost() *wal.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lost
}

// Acked returns the records of every completed segment Write, by LSN.
func (f *FaultFS) Acked() []wal.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	acked := slices.Clone(f.acked)
	slices.SortFunc(acked, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	return acked
}

// op counts an operation on files and returns the error it fails with;
// hit reports that it is the fault point's.
func (f *FaultFS) op(op FileOp, files Files) (hit bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen {
		return false, ErrFrozen
	}
	f.counts[op][AnyFile]++
	if files != AnyFile {
		f.counts[op][files]++
	}
	p := f.point
	if f.fired || p.Op != op || (p.Files != AnyFile && p.Files != files) || f.counts[op][p.Files] != p.Nth {
		return false, nil
	}
	f.fired, f.frozen = true, p.Err == nil
	return true, cmp.Or(p.Err, ErrFrozen)
}

// files returns the files path is one of.
func (f *FaultFS) files(path string) Files {
	rel, _ := filepath.Rel(f.root, path)
	switch top, _, _ := strings.Cut(filepath.ToSlash(rel), "/"); top {
	case "wal":
		return SegmentFiles
	case "checkpoint":
		return CheckpointFiles
	}
	return AnyFile
}

// do runs an operation on path unless it fails.
func (f *FaultFS) do(op FileOp, path string, run func() error) error {
	if _, err := f.op(op, f.files(path)); err != nil {
		return &os.PathError{Op: op.String(), Path: path, Err: err}
	}
	return run()
}

var osFS = wal.OS()

// OpenFile is wal.FS's, counted and failed at the fault point; so are the
// methods below it.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (file wal.File, err error) {
	err = f.do(OpOpen, name, func() error { file, err = osFS.OpenFile(name, flag, perm); return err })
	if err != nil {
		return nil, err
	}
	return &faultFile{f, file, f.files(name)}, nil
}

// ReadDir is wal.FS's.
func (f *FaultFS) ReadDir(name string) (es []os.DirEntry, err error) {
	err = f.do(OpReadDir, name, func() error { es, err = osFS.ReadDir(name); return err })
	return es, err
}

// MkdirAll is wal.FS's.
func (f *FaultFS) MkdirAll(name string, perm os.FileMode) error {
	return f.do(OpMkdir, name, func() error { return osFS.MkdirAll(name, perm) })
}

// Rename is wal.FS's.
func (f *FaultFS) Rename(from, to string) error {
	return f.do(OpRename, from, func() error { return osFS.Rename(from, to) })
}

// Remove is wal.FS's.
func (f *FaultFS) Remove(name string) error {
	return f.do(OpRemove, name, func() error { return osFS.Remove(name) })
}

// RemoveAll is wal.FS's.
func (f *FaultFS) RemoveAll(name string) error {
	return f.do(OpRemove, name, func() error { return osFS.RemoveAll(name) })
}

// Truncate is wal.FS's.
func (f *FaultFS) Truncate(name string, size int64) error {
	return f.do(OpTruncate, name, func() error { return osFS.Truncate(name, size) })
}

// SyncDir is wal.FS's.
func (f *FaultFS) SyncDir(name string) error {
	return f.do(OpSyncDir, name, func() error { return osFS.SyncDir(name) })
}

// faultFile is a file opened through a FaultFS. Its Close releases the
// descriptor even when frozen.
type faultFile struct {
	fs    *FaultFS
	f     wal.File
	files Files
}

func (ff *faultFile) Write(p []byte) (n int, err error) {
	hit, err := ff.fs.op(OpWrite, ff.files)
	if hit && ff.fs.point.Torn && err == ErrFrozen {
		n, _ = ff.f.Write(p[:len(p)/2])
	}
	if err == nil {
		n, err = ff.f.Write(p)
	}
	if ff.files != SegmentFiles || (err != nil && !hit) {
		return n, err
	}
	var recs []wal.Record
	wal.ScanSegment(p, func(r wal.Record) error {
		r.Src, r.Dst = slices.Clone(r.Src), slices.Clone(r.Dst)
		recs = append(recs, r)
		return nil
	})
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err == nil {
		ff.fs.acked = append(ff.fs.acked, recs...)
	} else if len(recs) > 0 {
		ff.fs.lost = &recs[0]
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if _, err := ff.fs.op(OpSync, ff.files); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	_, err := ff.fs.op(OpClose, ff.files)
	return cmp.Or(err, ff.f.Close())
}
