//go:build linux

package faults

import (
	"os"
	"syscall"
)

// mmapFile maps path read-only and privately; the release func unmaps it.
func mmapFile(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	// An empty file cannot be mapped (EINVAL), and Map reads it instead.
	b, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return b, func() { _ = syscall.Munmap(b) }, nil
}
