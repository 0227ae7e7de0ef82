//go:build !linux

package faults

import "errors"

// mmapFile: only Linux maps; elsewhere Map always reads.
func mmapFile(string) ([]byte, func(), error) {
	return nil, nil, errors.New("faults: mmap unsupported")
}
