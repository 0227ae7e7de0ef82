package faults

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// PublishFile is the one way a campuslab file becomes visible: write
// streams the content into a temp file beside path (named path's base +
// ".tmp" + a random suffix, which is what datastore.RemoveStaleTemps
// sweeps after a kill), the temp file is fsynced and closed, atomically
// renamed over path, and the directory is fsynced so the rename itself
// survives a power cut. A crash or an error at any step leaves path as it
// was — the previous file or none — never a truncated hybrid, and an
// error leaves no temp file behind.
//
// inj (nil = healthy) is consulted before every write (OpStoreWrite),
// before the fsync (OpStoreSync) and before the rename (OpStoreRename),
// so a scripted schedule can kill a publish at an exact step.
func PublishFile(path string, inj Injector, write func(io.Writer) error) (err error) {
	if inj == nil {
		inj = healthy
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return fmt.Errorf("publish %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after the one below is harmless
			os.Remove(tmp.Name())
			err = fmt.Errorf("publish %s: %w", path, err) // os and injected errors name the step
		}
	}()
	if err = write(&faultWriter{w: tmp, inj: inj}); err != nil {
		return err
	}
	if err = inj.Fail(OpStoreSync); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = inj.Fail(OpStoreRename); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// faultWriter consults the injector before every write, so a schedule can
// kill a publish at an exact write call.
type faultWriter struct {
	w   io.Writer
	inj Injector
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if err := fw.inj.Fail(OpStoreWrite); err != nil {
		return 0, err
	}
	return fw.w.Write(p)
}

// SyncDir fsyncs a directory so entries created or renamed in it are
// durable — without this, a power cut can lose a freshly created file even
// though its contents were fsynced.
func SyncDir(dir string) error {
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
