package faults

import (
	"errors"
	"io"
	"os"
	"path/filepath"
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
