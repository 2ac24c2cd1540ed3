//go:build !unix

package storage

import "errors"

// Non-unix platforms read sealed segments with pread: mmapFile always
// fails, the segment backend caches the failure, and every ReadAt falls
// back.
func mmapFile(string) ([]byte, error) {
	return nil, errors.New("storage: mmap unsupported on this platform")
}

func munmapBytes([]byte) {}
