// Disk-backed spill runs and the streaming k-way merge that reads them
// back.
//
// A sealed run is written once, in canonical sorted key order, as an
// internal/runfile run file (format v2: groups plus a footer index of
// key, count, offset, value-bytes per group). The shuffle keeps each
// run's index resident in typed form — the keys were in memory at seal
// time, so the index costs no decode — which splits the read path in
// two:
//
//   - Counting reads (Stats, NumKeys, SortedKeys, ForEachGroupCount,
//     the engine's overflow diagnosis) merge the in-memory indexes and
//     never open a run file at all: zero disk I/O.
//   - Value reads (RangeReader) run the classic external-sort merge —
//     one cursor per run driven by a binary heap ordered by (key, run
//     order) — but the indexes drive the key ordering, so the files
//     supply only value bytes.
//
// Because every run is internally sorted, one pass produces the
// partition's groups in global sorted order with the package's
// value-order contract intact — values of a key concatenate across
// runs in (task, seq) order — while holding only one group per
// run in memory. All run-file reads are metered into the shuffle's
// DiskBytesRead counter, which is how tests assert the counting path
// stayed memory-only.
package shuffle

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// maxDiskRunFanIn caps how many distinct run *files* one partition's
// merge opens at once. A commit that grows a partition past the cap
// compacts adjacent disk runs into one — the classic multi-pass
// external merge — so open file descriptors stay bounded no matter how
// far a dataset outgrows the budget, at the cost of logarithmically
// rewriting spilled bytes. Runs sharing a spool file count once: the
// merge reads them through sections of a single handle.
const maxDiskRunFanIn = 64

// maxDiskRunsPerPartition caps the total run count of one partition's
// merge regardless of how the runs share files: every cursor costs a
// read buffer and a heap slot even when its file handle is shared, so
// a round whose seals all land in a few spool files must still compact
// once its run count (not file count) outgrows the
// merge. Twice the file fan-in: spool sections are cheaper than files
// but not free.
const maxDiskRunsPerPartition = 2 * maxDiskRunFanIn

// needsCompaction reports whether a partition's disk runs outgrew
// either bound: distinct files (file descriptors) or total runs (read
// buffers and merge width).
func needsCompaction[K comparable](disk []diskRun[K]) bool {
	return len(disk) >= maxDiskRunsPerPartition || diskFanIn(disk) >= maxDiskRunFanIn
}

// diskFanIn is the number of distinct files behind a partition's disk
// runs — the quantity maxDiskRunFanIn bounds.
func diskFanIn[K comparable](disk []diskRun[K]) int {
	n := 0
	var last *runFile
	seen := make(map[*runFile]struct{}, len(disk))
	for i := range disk {
		rf := disk[i].file
		if rf == last {
			continue // runs of one spool adopt adjacently; fast path
		}
		if _, ok := seen[rf]; !ok {
			seen[rf] = struct{}{}
			n++
		}
		last = rf
	}
	return n
}

// diskReadConcurrency bounds how many partitions may hold their run
// files open at once — across reduce-time merges and merge-time
// compaction — keeping the file-descriptor high water near
// diskReadConcurrency * maxDiskRunFanIn regardless of partition count
// or worker count. (The counting pass no longer opens files at all.)
const diskReadConcurrency = 8

// keyCount is one group of a spilled run's resident index: the typed
// key, its value count, and the location of its value section in the
// run image (valOff is relative to the run's start, not the file's —
// runs embedded in a spool add their diskRun offset). Indexes are
// built at spill and compaction time from keys already in memory, so
// counting reads never decode from disk, and value reads address their
// sections directly — no framing is parsed on the read path at all.
type keyCount[K comparable] struct {
	key      K
	count    int64
	valBytes int64
	valOff   int64
}

// runFile is one spill file, shared by every diskRun it embeds and
// deleted when the last of them is released: a writer's spool holds
// many tasks' sections, each independently releasable (an abort of
// one task must not delete another's data), and a compaction output
// owns its whole file. Borrowed files (Adopt) belong to another
// process and are never deleted.
type runFile struct {
	path     string
	borrowed bool
	refs     atomic.Int32
	size     atomic.Int64 // bytes written into the file
	dead     atomic.Int64 // bytes of sections already released (rotation trigger)
}

// release drops one reference, removing the file when none remain.
// When the remove succeeds mid-round, the file's bytes are credited to
// reclaimed (nil to skip the credit, e.g. at Close, where deleting
// spill files is the round ending rather than space coming back to a
// still-running round).
func (rf *runFile) release(fs runfile.FS, reclaimed *atomic.Int64) error {
	if rf.refs.Add(-1) == 0 && !rf.borrowed {
		if err := fs.Remove(rf.path); err != nil {
			return err
		}
		if reclaimed != nil {
			reclaimed.Add(rf.size.Load())
		}
	}
	return nil
}

// diskRun is one sealed run — a complete, self-contained run-file
// image embedded in a (possibly shared) file at [off, off+size) —
// together with its resident index; pairs drives the tiered compaction
// policy (small fresh seals vs large compacted runs), and [first, last]
// is the range of tasks whose runs it holds (one task unless it is a
// compaction output).
type diskRun[K comparable] struct {
	file        *runFile
	off         int64
	size        int64
	pairs       int64
	index       []keyCount[K]
	first, last int
}

// countingReaderAt meters every byte of a positioned run-file read
// into the shuffle's DiskBytesRead counter.
type countingReaderAt struct {
	ra io.ReaderAt
	n  *atomic.Int64
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ra.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// writeGroups encodes one sorted run onto an already-open writer.
func writeGroups[K comparable, V any](w *runfile.Writer, name string, keys []K, groups map[K][]V) error {
	var kbuf, vbuf []byte
	var err error
	for _, k := range keys {
		kbuf, err = runfile.Append(kbuf[:0], k)
		if err != nil {
			return fmt.Errorf("shuffle: spilling key: %w", err)
		}
		vs := groups[k]
		if err := w.BeginGroup(kbuf, len(vs)); err != nil {
			return fmt.Errorf("shuffle: spilling to %s: %w", name, err)
		}
		for _, v := range vs {
			vbuf, err = runfile.Append(vbuf[:0], v)
			if err != nil {
				return fmt.Errorf("shuffle: spilling value: %w", err)
			}
			if err := w.AppendValue(vbuf); err != nil {
				return fmt.Errorf("shuffle: spilling to %s: %w", name, err)
			}
		}
	}
	return nil
}

// typedIndex pairs the writer's footer entries (counts and value-byte
// lengths, complete after Finish) with the typed keys they were written
// from, in write order. Each group's value-section offset is derived
// from where the next group starts (bodyEnd for the last group): the
// section is the valBytes-long tail of the group's framing.
func typedIndex[K comparable](keys []K, entries []runfile.IndexEntry, bodyEnd int64) []keyCount[K] {
	index := make([]keyCount[K], len(keys))
	for i, k := range keys {
		end := bodyEnd
		if i+1 < len(entries) {
			end = entries[i+1].Offset
		}
		index[i] = keyCount[K]{
			key:      k,
			count:    entries[i].Count,
			valBytes: entries[i].ValueBytes,
			valOff:   end - entries[i].ValueBytes,
		}
	}
	return index
}

// compactionWindow picks the disk runs [from, to) to compact. Only runs
// adjacent in (task, seq) order with no uncommitted task between them
// may merge — an uncommitted task's runs may still land in that gap —
// so the runs split into gap-free segments. Within a segment the
// window is the suffix of "small" runs (fresh seals), leaving earlier
// already-compacted large runs untouched so each pair is rewritten once
// per tier rather than on every compaction; when that suffix holds
// fewer than two runs the whole segment merges (a higher tier). Each
// tier is ~maxDiskRunFanIn/2 times larger than the last, so rewrite
// amplification is logarithmic in the spilled volume. The longest
// candidate wins; to == from means nothing can merge yet. The caller
// holds the partition lock.
func (s *Shuffle[K, V]) compactionWindow(disk []diskRun[K]) (from, to int) {
	large := int64(s.opts.MemoryBudget) * (maxDiskRunFanIn / 2)
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for lo := 0; lo < len(disk); {
		hi := lo + 1
	gap:
		for ; hi < len(disk); hi++ {
			for t := disk[hi-1].last + 1; t < disk[hi].first; t++ {
				if !s.committed[t] {
					break gap
				}
			}
		}
		f := lo
		for i := hi - 1; i >= lo; i-- {
			if disk[i].pairs >= large {
				f = i + 1
				break
			}
		}
		if hi-f < 2 {
			f = lo
		}
		if hi-f >= 2 && hi-f > to-from {
			from, to = f, hi
		}
		lo = hi
	}
	return from, to
}

// compactDiskRuns merges the window of disk runs chosen by
// compactionWindow into one new run file and splices it into st.disk.
// The caller holds st.mu. With concurrent set — the async compaction
// workers — the merge I/O runs with st.mu released: the input runs are
// immutable, and the window is gap-free, so commits landing meanwhile
// insert only before or after it; the install finds the window again
// by its first run. The span is recorded on lane: the committing
// writer's lane inline, a compactor lane when concurrent.
func (st *partitionState[K, V]) compactDiskRuns(s *Shuffle[K, V], lane *obs.Ring, concurrent bool) (retErr error) {
	from, to := s.compactionWindow(st.disk)
	if to-from < 2 {
		return nil
	}
	compacting := append([]diskRun[K](nil), st.disk[from:to]...)
	nIn := len(compacting)
	lane.Begin(obs.OpCompact, int64(nIn), 0)
	var outPairs int64
	defer func() { lane.End(obs.OpCompact, outPairs, errFlag(retErr)) }()
	var inPairs int64
	for _, dr := range compacting {
		inPairs += dr.pairs
	}

	if concurrent {
		st.mu.Unlock()
	}
	path, w, keysWritten, err := mergeDiskRuns(s, compacting)
	if concurrent {
		st.mu.Lock()
	}
	if err != nil {
		return err
	}

	from = slices.IndexFunc(st.disk, func(dr diskRun[K]) bool {
		return dr.file == compacting[0].file && dr.off == compacting[0].off
	})
	for _, dr := range compacting {
		dr.file.dead.Add(dr.size)
		dr.file.release(s.fs, &s.bytesReclaimed)
	}
	outRef := &runFile{path: path}
	outRef.refs.Store(1)
	outRef.size.Store(w.BytesWritten())
	merged := diskRun[K]{
		file:  outRef,
		size:  w.BytesWritten(),
		pairs: w.Pairs(),
		index: typedIndex(keysWritten, w.Index(), w.BodyBytes()),
		first: compacting[0].first,
		last:  compacting[nIn-1].last,
	}
	tail := append([]diskRun[K]{merged}, st.disk[from+nIn:]...)
	st.disk = append(st.disk[:from], tail...)
	// A combiner can shrink the partition's held pairs during the
	// rewrite; keep the partition totals equal to the sum of its group
	// counts.
	st.pairs -= inPairs - w.Pairs()
	outPairs = w.Pairs()
	return nil
}

// mergeDiskRuns merges the given sealed runs into one new run file,
// returning its path, the writer (whose index and counters describe
// the output), and the keys in write order. Pure I/O over immutable
// inputs — no partition state is read or written, which is what lets
// the async compactor run it without the partition lock.
//
// The merge order comes entirely from the runs' resident indexes — no
// key is decoded from disk — and value sections are addressed through
// those indexes and loaded on demand in fold order (a mapped view or
// one pread each). The groups of one key across runs are folded into a
// single output group whose values concatenate in run order,
// preserving the value-order contract; without a combiner each section
// moves as one raw framed copy, never parsed, while with a combiner
// the folded values are decoded, re-combined, and re-encoded,
// shrinking the rewritten bytes toward the post-combine communication
// cost. Peak memory is one group; peak descriptors maxDiskRunFanIn
// plus the output file.
func mergeDiskRuns[K comparable, V any](s *Shuffle[K, V], compacting []diskRun[K]) (path string, w *runfile.Writer, keysWritten []K, retErr error) {
	compare := nativeCompare[K]()
	cursors, closeAll, err := openDiskCursors[K, V](s, compacting)
	defer closeAll()
	if err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: compacting spill runs: %w", err)
	}

	out, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spill-*.run")
	if err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: creating compacted run: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			out.Close()
			s.fs.Remove(out.Name())
		}
	}()
	w = runfile.NewWriter(out)

	h := &cursorHeap[K, V]{compare: compare}
	h.prime(cursors)

	// Each source of an output group is just an index record — cursor,
	// count, section location — and the fold loads sections when it
	// writes them.
	type source struct {
		c        *groupCursor[K, V]
		count    int
		valBytes int64
		valOff   int64
	}
	var srcs []source
	var kbuf, vbuf []byte
	var vals []V // combiner scratch, reused across groups
	writeGroup := func(k K) error {
		var err error
		kbuf, err = runfile.Append(kbuf[:0], k)
		if err != nil {
			return fmt.Errorf("shuffle: compacting key: %w", err)
		}
		if s.combiner == nil {
			total := 0
			for _, e := range srcs {
				total += e.count
			}
			if err := w.BeginGroup(kbuf, total); err != nil {
				return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
			}
			for _, e := range srcs {
				// One section load (mapped view or pread), one framed
				// append: the group's values move as raw bytes, never
				// parsed.
				if err := e.c.loadSection(e.valOff, e.valBytes, e.count); err != nil {
					return err
				}
				if err := w.AppendRawBytes(e.c.batch.Raw(), e.count); err != nil {
					return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
				}
			}
			keysWritten = append(keysWritten, k)
			return nil
		}
		// Combiner path: decode the folded group's values in run order,
		// re-combine, re-encode. The scratch slice is reused across
		// groups; the combined values are encoded before the next group
		// touches it, so a combiner returning a sub-slice of its input is
		// safe.
		vals = vals[:0]
		for _, e := range srcs {
			if err := e.c.loadSection(e.valOff, e.valBytes, e.count); err != nil {
				return err
			}
			vals, err = runfile.DecodeBatch[V](&e.c.batch, vals)
			if err != nil {
				return fmt.Errorf("shuffle: compacting %s: %w", e.c.file.Name(), err)
			}
		}
		combined := s.combiner(k, vals)
		if len(combined) == 0 {
			return nil // combiner dropped the group entirely
		}
		if err := w.BeginGroup(kbuf, len(combined)); err != nil {
			return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
		}
		for _, v := range combined {
			vbuf, err = runfile.Append(vbuf[:0], v)
			if err != nil {
				return fmt.Errorf("shuffle: compacting value: %w", err)
			}
			if err := w.AppendValue(vbuf); err != nil {
				return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
			}
		}
		keysWritten = append(keysWritten, k)
		return nil
	}
	for len(h.cs) > 0 {
		k := h.cs[0].key
		srcs = srcs[:0]
		for len(h.cs) > 0 && compare(h.cs[0].key, k) == 0 {
			c := h.pop()
			srcs = append(srcs, source{c: c, count: c.count, valBytes: c.valBytes, valOff: c.valOff})
			h.advance(c)
		}
		if err := writeGroup(k); err != nil {
			return "", nil, nil, err
		}
	}
	if err := w.Finish(); err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: flushing compacted run: %w", err)
	}
	if err := out.Close(); err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: closing compacted run: %w", err)
	}
	ok = true
	return out.Name(), w, keysWritten, nil
}

// runView is one disk run's opened read surface: a zero-copy mapped
// view of the run's image when the platform and FS support it, or the
// positioned-read fallback on the file's shared handle otherwise. Runs
// embedded in one spool file share a single handle, so several cursors
// — including clamped range cursors reading the same run concurrently
// — cost one descriptor per file.
type runView struct {
	file  runfile.File
	img   []byte      // mapped view of the run image (zero-copy path)
	ra    io.ReaderAt // positioned-read fallback (when img is nil)
	raOff int64       // run's offset within the file (ra path)
}

// viewCursor returns a cursor over v walking index — the run's whole
// resident index, or a range's clamped window of it.
func viewCursor[K comparable, V any](v runView, runIdx int, index []keyCount[K], meter *atomic.Int64) *groupCursor[K, V] {
	return &groupCursor[K, V]{
		runIdx: runIdx, idx: index,
		file: v.file, img: v.img, ra: v.ra, raOff: v.raOff, meter: meter,
	}
}

// openRunViews opens one view per disk run, in run order. Each file is
// opened once; each run is mapped on its own, from the page holding its
// first byte, because a writer's spool interleaves every partition's
// sections and a whole-file mapping would let the kernel's fault-around
// pull other partitions' pages into this reader. Any mapping failure —
// no platform support, an injected fault, address-space pressure —
// silently selects the pread fallback for that run (no seek state, so
// sibling cursors never interfere). The returned closeAll is safe to
// call whether or not err is nil; it unmaps and closes everything
// opened so far, once each.
func openRunViews[K comparable, V any](s *Shuffle[K, V], runs []diskRun[K]) ([]runView, func(), error) {
	files := make(map[*runFile]runfile.File)
	var maps [][]byte
	var mapFiles []runfile.File
	closeAll := func() {
		for i, m := range maps {
			// Unmap errors are unactionable here: the views are dead
			// either way, and errfs releases the real mapping even when
			// injecting.
			runfile.Unmap(mapFiles[i], m)
		}
		for _, f := range files {
			f.Close()
		}
	}
	page := int64(os.Getpagesize())
	views := make([]runView, 0, len(runs))
	for _, dr := range runs {
		f, ok := files[dr.file]
		if !ok {
			var err error
			if f, err = s.fs.Open(dr.file.path); err != nil {
				return views, closeAll, fmt.Errorf("shuffle: opening spill run: %w", err)
			}
			files[dr.file] = f
		}
		v := runView{file: f, ra: countingReaderAt{f, &s.diskRead}, raOff: dr.off}
		if base := dr.off &^ (page - 1); !s.opts.DisableMmap {
			if m, err := runfile.Map(f, base, dr.off+dr.size-base); err == nil {
				maps, mapFiles = append(maps, m), append(mapFiles, f)
				v.img = m[dr.off-base:]
			}
		}
		views = append(views, v)
	}
	return views, closeAll, nil
}

// openDiskCursors opens one cursor per disk run, in run order, each
// metered through the shuffle's DiskBytesRead counter. The cursor's
// key ordering comes from the run's resident index; the file supplies
// only value-section bytes, addressed directly through the index (see
// openRunViews for the mapped-view/pread split).
func openDiskCursors[K comparable, V any](s *Shuffle[K, V], runs []diskRun[K]) ([]*groupCursor[K, V], func(), error) {
	views, closeAll, err := openRunViews(s, runs)
	if err != nil {
		return nil, closeAll, err
	}
	cursors := make([]*groupCursor[K, V], 0, len(runs))
	for i, dr := range runs {
		cursors = append(cursors, viewCursor[K, V](views[i], i, dr.index, &s.diskRead))
	}
	return cursors, closeAll, nil
}

// Close deletes the shuffle's spill files; call it once the reduce
// phase is done with the partitions. Afterwards reads and Stats
// on a partition that had spilled return an error rather than the
// silently truncated in-memory view (a Stats result memoized before
// Close stays servable — it needs no disk). Close must not run
// concurrently with reads.
func (s *Shuffle[K, V]) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	// Quiesce the async compaction workers first: an in-flight merge
	// holds run files open and would install its output into the
	// partitions being torn down. Errors they hit surface through
	// Finish; Close only waits.
	s.compactWG.Wait()
	if s.compactCh != nil {
		close(s.compactCh)
	}
	// Releases below pass a nil reclaimed counter: deleting spill files
	// because the round is over is teardown, not space coming back to a
	// running round.
	var first error
	for i := range s.parts {
		st := &s.parts[i]
		for _, dr := range st.disk {
			if err := dr.file.release(s.fs, nil); err != nil && first == nil {
				first = err
			}
		}
		st.disk = nil
	}
	// A round that failed before Finish still holds its writers' spool
	// handles; uncommitted attempts' sections are released with them.
	for _, w := range s.writers {
		for _, r := range w.runs {
			if r.disk.file != nil {
				if err := r.disk.file.release(s.fs, nil); err != nil && first == nil {
					first = err
				}
			}
		}
		w.runs = nil
		if w.spool != nil {
			if err := w.spool.close(nil); err != nil && first == nil {
				first = err
			}
		}
	}
	s.writers = nil
	s.closed = true
	return first
}

// groupCursor walks one run's groups in canonical key order: an
// in-memory run over its sorted keys and value lists, or a spilled run
// driven by its resident index — with the run file attached only when
// values are being read.
type groupCursor[K comparable, V any] struct {
	runIdx int // run order: disk runs, then in-memory runs

	// in-memory source
	memKeys []K
	memVals [][]V

	// spilled source: the resident index drives keys, counts and value
	// section locations; the file (img view or ReaderAt, both nil on
	// the counting path) supplies only section bytes.
	idx   []keyCount[K]
	file  runfile.File
	img   []byte             // mapped view of this run's image (zero-copy path)
	ra    io.ReaderAt        // positioned-read fallback (shared handle)
	raOff int64              // run's offset within the file (ra path)
	meter *atomic.Int64      // DiskBytesRead, charged per section load
	batch runfile.ValueBatch // reused value-section arena or view
	vals  []V                // reused decoded-values scratch (reuse mode)

	pos int

	// current group
	key      K
	count    int
	valBytes int64 // value-section length (spilled source)
	valOff   int64 // value-section offset within the run (spilled source)
}

// next advances to the cursor's next group, returning false at the end
// of the run. Purely in-memory: spilled cursors step their index; the
// file is touched only when values() is called.
func (c *groupCursor[K, V]) next() bool {
	if c.memKeys != nil {
		if c.pos >= len(c.memKeys) {
			return false
		}
		c.key = c.memKeys[c.pos]
		c.count = len(c.memVals[c.pos])
	} else {
		if c.pos >= len(c.idx) {
			return false
		}
		e := c.idx[c.pos]
		c.key, c.count, c.valBytes, c.valOff = e.key, int(e.count), e.valBytes, e.valOff
	}
	c.pos++
	return true
}

// loadSection fills the cursor's batch with the value section at
// [valOff, valOff+valBytes) of the cursor's run: a zero-copy view when
// the run is mapped, one positioned read into the reused arena
// otherwise. The resident index supplies the location and the value
// count, so no framing is parsed from disk on either path; the
// section's own internal framing is still validated as the batch
// splits it (a length overrunning the section is ErrCorrupt).
func (c *groupCursor[K, V]) loadSection(valOff, valBytes int64, count int) error {
	if c.img != nil {
		if valOff < 0 || valBytes < 0 || valOff+valBytes > int64(len(c.img)) {
			return fmt.Errorf("shuffle: reading spill %s: %w: value section [%d,%d) outside run of %d bytes",
				c.file.Name(), runfile.ErrCorrupt, valOff, valOff+valBytes, len(c.img))
		}
		c.meter.Add(valBytes)
		if err := c.batch.SetView(c.img[valOff:valOff+valBytes], count); err != nil {
			return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
		}
		return nil
	}
	if err := c.batch.ReadSectionAt(c.ra, c.raOff+valOff, valBytes, count); err != nil {
		return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
	}
	return nil
}

// values decodes the current group's values. For a spilled run this is
// the only point the file is touched: the resident index locates the
// group's value section, loadSection brings it in (mapped view or one
// pread — no framing decoded, no intermediate copy), and the batch is
// decoded with a single type dispatch (runfile.DecodeBatch). With
// reuse set — the batch reduce contract — the decoded slice is the
// cursor's scratch, overwritten by the next group; otherwise it is
// freshly owned.
func (c *groupCursor[K, V]) values(reuse bool) ([]V, error) {
	if c.memKeys != nil {
		return c.memVals[c.pos-1], nil
	}
	if err := c.loadSection(c.valOff, c.valBytes, c.count); err != nil {
		return nil, err
	}
	dst := c.vals[:0]
	if !reuse {
		dst = make([]V, 0, c.count)
	}
	vs, err := runfile.DecodeBatch[V](&c.batch, dst)
	if err != nil {
		return nil, fmt.Errorf("shuffle: decoding spill value in %s: %w", c.file.Name(), err)
	}
	if reuse {
		c.vals = vs
	}
	return vs, nil
}

// cursorHeap is a binary min-heap of cursors ordered by (current key,
// run order), so equal keys pop in run order and the concatenated
// values respect the package's value-order contract.
type cursorHeap[K comparable, V any] struct {
	cs      []*groupCursor[K, V]
	compare func(a, b K) int
}

func (h *cursorHeap[K, V]) before(a, b *groupCursor[K, V]) bool {
	if c := h.compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.runIdx < b.runIdx
}

// prime advances every cursor to its first group and pushes the
// non-empty ones.
func (h *cursorHeap[K, V]) prime(cursors []*groupCursor[K, V]) {
	for _, c := range cursors {
		h.advance(c)
	}
}

// advance steps c to its next group and pushes it back unless its run
// is exhausted. A run that repeats a key sorts the cursor back to the
// top, ahead of later runs, so it is popped again in run order.
func (h *cursorHeap[K, V]) advance(c *groupCursor[K, V]) {
	if c.next() {
		h.push(c)
	}
}

func (h *cursorHeap[K, V]) push(c *groupCursor[K, V]) {
	h.cs = append(h.cs, c)
	i := len(h.cs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.cs[i], h.cs[parent]) {
			break
		}
		h.cs[i], h.cs[parent] = h.cs[parent], h.cs[i]
		i = parent
	}
}

func (h *cursorHeap[K, V]) pop() *groupCursor[K, V] {
	top := h.cs[0]
	last := len(h.cs) - 1
	h.cs[0] = h.cs[last]
	h.cs = h.cs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.cs) && h.before(h.cs[l], h.cs[min]) {
			min = l
		}
		if r < len(h.cs) && h.before(h.cs[r], h.cs[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.cs[i], h.cs[min] = h.cs[min], h.cs[i]
		i = min
	}
	return top
}

// forEachGroup is the counting merge behind Stats, NumKeys,
// SortedKeys, ForEachGroupCount and range planning: it yields every
// group's key and size in canonical sorted key order by merging the
// spilled runs' resident indexes with the in-memory runs — no run file
// is opened, no byte of disk is read.
func (p Partition[K, V]) forEachGroup(fn func(k K, count int) error) error {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}
	var cursors []*groupCursor[K, V]
	for _, dr := range st.disk {
		cursors = append(cursors, &groupCursor[K, V]{runIdx: len(cursors), idx: dr.index})
	}
	for _, run := range st.mem {
		cursors = append(cursors, &groupCursor[K, V]{runIdx: len(cursors), memKeys: run.keys, memVals: run.vals})
	}
	return mergeGroupCursors(cursors, nativeCompare[K](), false, false, func(k K, count int, _ []V) error {
		return fn(k, count)
	})
}

// mergeGroupCursors runs the k-way heap merge over an already-built
// cursor set, yielding groups in canonical key order — the shared core
// of forEachGroup and the clamped range merges (RangeReader). Cursors
// must be ordered by runIdx ascending (run order) so
// the value-order contract holds.
func mergeGroupCursors[K comparable, V any](cursors []*groupCursor[K, V], compare func(a, b K) int, withValues, reuseValues bool, fn func(k K, count int, vs []V) error) error {
	h := &cursorHeap[K, V]{compare: compare}
	h.prime(cursors)
	// Pop every cursor at the minimum key — in run order, since the heap
	// breaks ties by runIdx — and concatenate their groups into one.
	for len(h.cs) > 0 {
		c := h.pop()
		k, count := c.key, c.count
		var vs []V
		if withValues {
			var err error
			if vs, err = c.values(reuseValues); err != nil {
				return err
			}
		}
		h.advance(c)
		copied := false
		for len(h.cs) > 0 && compare(h.cs[0].key, k) == 0 {
			c := h.pop()
			if withValues {
				if !copied {
					// Copy before extending: a single-run slice may alias
					// a live map's backing array or a cursor's scratch.
					vs = append(make([]V, 0, count+c.count), vs...)
					copied = true
				}
				more, err := c.values(reuseValues)
				if err != nil {
					return err
				}
				vs = append(vs, more...)
			}
			count += c.count
			h.advance(c)
		}
		if err := fn(k, count, vs); err != nil {
			return err
		}
	}
	return nil
}

// sortedMapKeys returns m's keys in canonical SortKeys order.
func sortedMapKeys[K comparable, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	SortKeys(keys)
	return keys
}

// RunImage locates one sorted run image written elsewhere: Length bytes
// at Offset of the file at Path, whose first DataBytes are run data and
// the rest its footer index. Proc map workers' committed spool sections
// are run images.
type RunImage struct {
	Path      string
	Offset    int64
	Length    int64
	DataBytes int64
}

// Adopt appends run images to partition part's disk runs, in the given
// order — which becomes the value order of their keys — so the images
// read through the same counting merge, range planning and RangeReader
// as the shuffle's own runs. Each image's footer index is loaded (a
// torn footer falls back to a sequential scan) and its keys decoded
// once; values stay on disk. The files are borrowed: Close never
// deletes them.
func (s *Shuffle[K, V]) Adopt(part int, runs []RunImage) error {
	st := &s.parts[part]
	files := make(map[string]*runFile)
	for _, r := range runs {
		rf := files[r.Path]
		if rf == nil {
			rf = &runFile{path: r.Path, borrowed: true}
			files[r.Path] = rf
		}
		f, err := s.fs.Open(r.Path)
		if err != nil {
			return fmt.Errorf("shuffle: opening run image %s: %w", r.Path, err)
		}
		entries, err := runfile.LoadIndex(io.NewSectionReader(f, r.Offset, r.Length), r.Length)
		f.Close()
		if err == nil && (r.DataBytes <= 0 || r.DataBytes > r.Length) {
			err = fmt.Errorf("%w: %d data bytes in a %d-byte image", runfile.ErrCorrupt, r.DataBytes, r.Length)
		}
		if err != nil {
			return fmt.Errorf("shuffle: run image %s@%d+%d unreadable: %w", r.Path, r.Offset, r.Length, err)
		}
		keys := make([]K, len(entries))
		var pairs int64
		for i, e := range entries {
			if keys[i], err = runfile.Decode[K](e.Key); err != nil {
				return fmt.Errorf("shuffle: decoding key in run image %s@%d: %w", r.Path, r.Offset, err)
			}
			pairs += e.Count
		}
		rf.refs.Add(1)
		st.disk = append(st.disk, diskRun[K]{
			file: rf, off: r.Offset, size: r.Length, pairs: pairs,
			index: typedIndex(keys, entries, r.DataBytes),
		})
		st.pairs += pairs
		st.spilledToDisk = true
	}
	s.invalidateStats()
	return nil
}
