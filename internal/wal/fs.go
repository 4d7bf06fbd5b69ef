package wal

import (
	"io"
	"os"
)

// FS is the file system the package writes through: every segment append,
// fsync and seal, every checkpoint file, directory and rename, and replay's
// truncations and removals go through one, and nothing else touches the
// disk but reads (segments and checkpoints are read with the os package).
// A nil FS is the OS. A test injects a crash or an I/O error by passing one
// that fails a chosen operation.
type FS interface {
	// OpenFile opens a file for writing, with os.OpenFile's flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(name string, perm os.FileMode) error
	Rename(oldname, newname string) error
	Remove(name string) error
	RemoveAll(name string) error
	Truncate(name string, size int64) error
	// SyncDir makes a directory's entries durable: the files created,
	// renamed and removed in it.
	SyncDir(name string) error
}

// File is a file opened through an FS.
type File interface {
	io.WriteCloser
	Sync() error
}

// OS returns the FS of the os package, the one a nil FS means. Its files
// are *os.Files.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // a nil *os.File would be a non-nil File
	}
	return f, nil
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }
func (osFS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(name string) error                  { return os.RemoveAll(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// orOS returns fsys, or the OS when it is nil.
func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}
