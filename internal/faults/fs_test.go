package faults

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestPublishFileReplacesAtomically: a publish replaces the file whole, and
// one whose write fails leaves the previous file and no temp file.
func TestPublishFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle")
	publish := func(content string, werr error) error {
		return PublishFile(OS, path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return werr
		})
	}
	for _, content := range []string{"first", "second"} {
		if err := publish(content, nil); err != nil {
			t.Fatal(err)
		}
	}
	broken := errors.New("disk gone")
	if err := publish("third", broken); !errors.Is(err, broken) {
		t.Fatalf("failed publish returned %v, want it to wrap %v", err, broken)
	}
	if b, err := OS.ReadFile(path); err != nil || string(b) != "second" {
		t.Fatalf("after a failed publish the file holds %q (%v), want the previous one", b, err)
	}
	if ents, err := OS.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the published file", len(ents), err)
	}
}

// TestPublishFileFailsWhole: a publish that dies at any file operation up
// to and including the rename — the temp file's create, a write, the
// fsync, the close, the rename — leaves the previous file and nothing else
// in the directory. Past the rename only the directory sync is left, and
// the new file is already in place.
func TestPublishFileFailsWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle")
	publish := func(fsys FS, content string) error {
		return PublishFile(fsys, path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := publish(OS, "previous"); err != nil {
		t.Fatal(err)
	}
	for k := 1; ; k++ {
		ffs := &failingFS{FS: OS, k: k}
		err := publish(ffs, "never lands")
		op := ffs.failed
		if op == "" {
			t.Fatalf("operation %d: the publish has only %d operations and never reached its rename", k, ffs.ops)
		}
		if err == nil {
			t.Fatalf("%s: injected failure did not surface", op)
		}
		if b, err := OS.ReadFile(path); err != nil || string(b) != "previous" {
			t.Fatalf("%s: previous file lost: %q (%v)", op, b, err)
		}
		if ents, _ := OS.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s: failed publish left %d entries behind", op, len(ents))
		}
		if op == "rename" {
			break
		}
	}
}

// failingFS is a file system whose k-th operation (counting from 1, the
// methods of an open file included) fails with EIO and changes nothing.
type failingFS struct {
	FS
	k, ops int
	failed string // the operation that failed
}

func (f *failingFS) step(op string) error {
	if f.ops++; f.ops == f.k {
		f.failed = op
		return &fs.PathError{Op: op, Err: syscall.EIO}
	}
	return nil
}

func (f *failingFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.step("create-temp"); err != nil {
		return nil, err
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return failingFile{file, f}, nil
}

func (f *failingFS) Rename(oldpath, newpath string) error {
	if err := f.step("rename"); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *failingFS) Remove(path string) error {
	if err := f.step("remove"); err != nil {
		return err
	}
	return f.FS.Remove(path)
}

func (f *failingFS) SyncDir(dir string) error {
	if err := f.step("syncdir"); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

// failingFile counts its writes, syncs and closes as operations of its fs.
type failingFile struct {
	File
	fs *failingFS
}

func (f failingFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f failingFile) Sync() error {
	if err := f.fs.step("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f failingFile) Close() error {
	if err := f.fs.step("close"); err != nil {
		return err
	}
	return f.File.Close()
}

// TestOSMap: Map returns a file's bytes whether it maps them or, for an
// empty file that cannot be mapped, reads them, and fails on a missing one.
func TestOSMap(t *testing.T) {
	dir := t.TempDir()
	for _, content := range []string{"segment bytes", ""} {
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		b, release, err := OS.Map(path)
		if err != nil || string(b) != content {
			t.Fatalf("Map = %q, %v; want %q", b, err, content)
		}
		release()
	}
	if _, _, err := OS.Map(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Map of a missing file: %v", err)
	}
}
