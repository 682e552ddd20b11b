// The filesystem seam behind run files.
//
// Run files are created, reopened and deleted by the shuffle's spill
// machinery; everything it needs from the operating system is the
// narrow FS interface below. Production code uses OSFS (the os
// package, verbatim); the fault-injection harness (internal/errfs)
// wraps any FS and fails the Nth call of a chosen operation, which is
// how the spill, compaction and reduce-merge error paths are tested
// without a real failing disk.
package runfile

import (
	"io"
	"os"
)

// File is one run-file handle: sequential read/write for the spill
// writer and merge cursors, random access for ReadIndex, and the name
// under which the file can be reopened or removed.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Closer
	Name() string
}

// FS creates, reopens and removes run files. Implementations must be
// safe for concurrent use: the shuffle spills and merges from many
// partition goroutines at once.
type FS interface {
	// CreateTemp creates a new run file with os.CreateTemp semantics:
	// pattern's "*" is replaced by a random string, and the returned
	// file is open for read and write.
	CreateTemp(dir, pattern string) (File, error)
	// Open reopens an existing run file for reading.
	Open(name string) (File, error)
	// Remove deletes a run file.
	Remove(name string) error
}

// OSFS is the production FS: the real filesystem via the os package.
// Its files implement Mapper on platforms with mmap, so readers opened
// through it can take the zero-copy path.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

// osFile adds the Mapper methods to a real file. The mapping outlives
// the fd (mmap holds its own reference to the inode), matching Mapper's
// contract.
type osFile struct{ *os.File }

func (f osFile) Mmap(off, length int64) ([]byte, error) { return sysMmap(f.File, off, length) }

func (f osFile) Madvise(data []byte) error { return sysMadvise(data) }

func (f osFile) Munmap(data []byte) error { return sysMunmap(data) }
