package faults

import (
	"io"
	"io/fs"
	"os"
)

// FS is the seam between campuslab's durable state and the disk: every
// file operation of the datastore's snapshots, write-ahead log and cold
// tier goes through one. OS is the real disk; crash and write-failure tests hand the code a
// file system that fails an operation or loses what was never synced.
type FS interface {
	// OpenFile opens path with os.OpenFile's flags (mode 0644 if created).
	OpenFile(path string, flag int) (File, error)
	// CreateTemp creates a new file in dir named by os.CreateTemp's rules.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadDir(dir string) ([]fs.DirEntry, error) // sorted by name
	ReadFile(path string) ([]byte, error)
	MkdirAll(dir string) error // mode 0755
	// SyncDir fsyncs a directory, making the entries created, renamed or
	// removed in it durable: a power cut can otherwise lose a new file
	// whose contents were fsynced.
	SyncDir(dir string) error
	// Map returns path's bytes read-only and a release func to call once
	// nothing reads them any more.
	Map(path string) ([]byte, func(), error)
}

// File is an open file of an FS.
type File interface {
	io.ReadWriteCloser
	Sync() error
	Name() string
}

// OS is the real disk.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string, flag int) (File, error) {
	return asFile(os.OpenFile(path, flag, 0o644))
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return asFile(os.CreateTemp(dir, pattern)) }

// asFile keeps a failed open's nil *os.File from becoming a non-nil File.
func asFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Map maps the file where the platform can — the page cache's pages, not a
// copy; unlinking a mapped file is safe — and reads it otherwise: off
// Linux, for an empty file, or when the mapping fails.
func (osFS) Map(path string) ([]byte, func(), error) {
	if b, release, err := mmapFile(path); err == nil {
		return b, release, nil
	}
	b, err := os.ReadFile(path)
	return b, func() {}, err
}
