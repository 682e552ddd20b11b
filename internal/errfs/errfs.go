// Package errfs is a fault-injection filesystem for the spill data
// path: a runfile.FS wrapper that fails the Nth call of a chosen
// operation with a chosen error, and counts every call either way.
//
// The external shuffle's failure surface is exactly the operations in
// runfile.FS plus the per-handle reads, writes and closes, so a test
// can march an injection point through a workload — fail the first
// create, the third read, the last write — and assert that spill,
// compaction and the reduce-time merge surface the error wrapped (not
// panicking, and never silently truncating a partition). Counting mode
// (no injection armed) doubles as a probe for how many calls a
// scenario performs, so tests can target "the read in the middle of
// the merge" without hard-coding fragile ordinals.
package errfs

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/runfile"
)

// Op names one injectable filesystem operation.
type Op string

const (
	OpCreate  Op = "create"  // FS.CreateTemp
	OpOpen    Op = "open"    // FS.Open
	OpRemove  Op = "remove"  // FS.Remove
	OpRead    Op = "read"    // File.Read
	OpReadAt  Op = "readat"  // File.ReadAt
	OpWrite   Op = "write"   // File.Write
	OpClose   Op = "close"   // File.Close
	OpMmap    Op = "mmap"    // Mapper.Mmap
	OpMadvise Op = "madvise" // Mapper.Madvise
	OpMunmap  Op = "munmap"  // Mapper.Munmap
)

// ErrInjected is the default injected failure.
var ErrInjected = errors.New("errfs: injected I/O failure")

// FS wraps a base runfile.FS, counting calls per operation and failing
// the armed ones. Safe for concurrent use, like the FS it wraps.
type FS struct {
	base runfile.FS

	mu     sync.Mutex
	calls  map[Op]int
	failAt map[Op]int // 1-based call ordinal that fails; 0 = disarmed
	errs   map[Op]error
}

// New wraps base (nil means runfile.OSFS) with no injections armed.
func New(base runfile.FS) *FS {
	if base == nil {
		base = runfile.OSFS
	}
	return &FS{
		base:   base,
		calls:  make(map[Op]int),
		failAt: make(map[Op]int),
		errs:   make(map[Op]error),
	}
}

// FailAt arms op to fail on its nth call from now (1 = the next call)
// with err (nil selects ErrInjected). Arming an op resets its counter,
// so ordinals are local to the phase under test. Only the armed call
// fails; later calls of the same op succeed again.
func (f *FS) FailAt(op Op, nth int, err error) {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op] = 0
	f.failAt[op] = nth
	f.errs[op] = err
}

// Reset disarms every injection and zeroes all counters.
func (f *FS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = make(map[Op]int)
	f.failAt = make(map[Op]int)
	f.errs = make(map[Op]error)
}

// Calls reports how many times op has been invoked since the last
// Reset (or FailAt arming of that op).
func (f *FS) Calls(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// check counts one call of op and returns the injected error when this
// call is the armed ordinal.
func (f *FS) check(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	if n := f.failAt[op]; n > 0 && f.calls[op] == n {
		return fmt.Errorf("%s call %d: %w", op, n, f.errs[op])
	}
	return nil
}

// CreateTemp implements runfile.FS.
func (f *FS) CreateTemp(dir, pattern string) (runfile.File, error) {
	if err := f.check(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file}, nil
}

// Open implements runfile.FS.
func (f *FS) Open(name string) (runfile.File, error) {
	if err := f.check(OpOpen); err != nil {
		return nil, err
	}
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file}, nil
}

// Remove implements runfile.FS.
func (f *FS) Remove(name string) error {
	if err := f.check(OpRemove); err != nil {
		return err
	}
	return f.base.Remove(name)
}

// faultFile threads the handle-level operations through the wrapper's
// counters and injections.
type faultFile struct {
	fs *FS
	runfile.File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.check(OpRead); err != nil {
		return 0, err
	}
	return f.File.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpReadAt); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.check(OpWrite); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Close() error {
	if err := f.fs.check(OpClose); err != nil {
		f.File.Close() // release the real handle either way
		return err
	}
	return f.File.Close()
}

// The Mapper methods make faultFile an injectable runfile.Mapper. When
// the base file cannot map, the base error propagates (so the wrapper
// never claims more capability than the platform has); injections sit
// in front, modelling a kernel that refuses or revokes a mapping. An
// injected Mmap or Madvise failure must push the reader onto the
// pread fallback — the march in internal/shuffle asserts that.

func (f *faultFile) Mmap(off, length int64) ([]byte, error) {
	if err := f.fs.check(OpMmap); err != nil {
		return nil, err
	}
	m, ok := f.File.(runfile.Mapper)
	if !ok {
		return nil, runfile.ErrNoMmap
	}
	return m.Mmap(off, length)
}

func (f *faultFile) Madvise(data []byte) error {
	if err := f.fs.check(OpMadvise); err != nil {
		return err
	}
	m, ok := f.File.(runfile.Mapper)
	if !ok {
		return runfile.ErrNoMmap
	}
	return m.Madvise(data)
}

func (f *faultFile) Munmap(data []byte) error {
	if err := f.fs.check(OpMunmap); err != nil {
		// Release the real mapping either way: an injected unmap
		// failure models a reported error, not a leaked map.
		if m, ok := f.File.(runfile.Mapper); ok {
			m.Munmap(data)
		}
		return err
	}
	m, ok := f.File.(runfile.Mapper)
	if !ok {
		return runfile.ErrNoMmap
	}
	return m.Munmap(data)
}
