package faults

import (
	"fmt"
	"io"
	"path/filepath"
)

// PublishFile is the one way a campuslab file becomes visible: write
// streams the content into a temp file beside path (named path's base +
// ".tmp" + a random suffix, which is what datastore's stale-temp sweep
// removes after a kill), the temp file is fsynced and closed, atomically
// renamed over path, and the directory is fsynced so the rename itself
// survives a power cut. A crash or an error at any step before the rename
// leaves path as it was — the previous file or none — never a truncated
// hybrid, and an error leaves no temp file behind. Only the directory
// sync can fail after the rename; path then holds the new file, which may
// not survive a power cut.
func PublishFile(fsys FS, path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return fmt.Errorf("publish %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after the one below is harmless
			fsys.Remove(tmp.Name())
			err = fmt.Errorf("publish %s: %w", path, err) // the file system's errors name the step
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
