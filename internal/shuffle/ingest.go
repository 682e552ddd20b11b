// The map-side data plane: single-writer task buffers sealing sorted
// sections.
//
// A map phase opens S task writers (TaskWriters), one per goroutine
// that runs map tasks — Workers in-process, 1 in a proc worker. Each
// task attempt writes through one of them: Emit appends to the
// partition's live run, and a live run that reaches the threshold
// ⌊MemoryBudget/S⌋ is sealed — combined, and unless the combine freed
// half the threshold, handed off as one run. At Commit the
// task's remaining live runs (its tail) are sealed the same way, so a
// task's output is a sequence of runs per partition, numbered in seal
// order. With a SpillDir every run is encoded as a section of the
// writer's one spool file for the round and dropped from memory;
// without one the runs stay in memory.
//
// Ordering. A task's runs are invisible until Commit, which inserts
// them into each partition's run list at the task's position — runs
// are kept in (task, seq) order, not commit order — so a key's values
// read back in (task order, emission order within the task) however
// the tasks were scheduled. No watermark gates anything: commit order
// only matters to compaction, which may merge only runs adjacent in
// (task, seq) order with no uncommitted task between them.
//
// Fencing. Abort drops the attempt's live runs and releases its sealed
// sections, so a retried task re-emits from scratch and a failed
// attempt's pairs are never visible anywhere.
//
// Memory. A writer holds at most P*threshold pairs in live runs, so
// with a SpillDir the S writers together hold at most P*MemoryBudget.
// Seal points depend only on the task's own pair stream and the
// configuration, which makes BytesSpilled and SpillEvents pure
// functions of the per-task streams, invariant to scheduling, tracing
// and timing.
package shuffle

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// TaskWriter is one single-writer task buffer: a goroutine runs its map
// task attempts through it one at a time (Begin, Emit..., Commit or
// Abort). It is not safe for concurrent use.
type TaskWriter[K comparable, V any] struct {
	s     *Shuffle[K, V]
	spool *spool[K, V] // this writer's spool for the round (SpillDir only)
	lane  *obs.Ring

	task, attempt int
	err           error

	// Per partition: the live run, its pair count, and the attempt's
	// sealed-run accounting, all reset by Begin.
	live      []map[K][]V
	livePairs []int
	maxLive   []int
	events    []int64
	spilled   []int64 // pairs sealed under the threshold (pressure)
	pairs     []int64 // post-combine pairs across the attempt's runs
	body      []int64
	index     []int64

	runs   []sealedRun[K, V] // the attempt's runs, in seal order
	freeVs [][]V             // recycled value-slice backing arrays

	// held counts the pairs this attempt holds in memory. Only the
	// writer adds to it; the shuffle reads it under residentMu.
	held paddedCount
}

// paddedCount is an atomic counter alone on its cache line, so one
// writer's adds never move a line another writer touches.
type paddedCount struct {
	_ [64]byte
	atomic.Int64
	_ [56]byte
}

// sealedRun is one run a task attempt sealed for one partition: on
// disk (a section of the writer's spool) or in memory.
type sealedRun[K comparable, V any] struct {
	part int
	disk diskRun[K]
	mem  memRun[K, V]
}

// TaskWriters opens the map phase's n task writers and fixes the seal
// threshold at ⌊MemoryBudget/n⌋ (at least 1 under a budget), the share
// of the budget each concurrently running writer may hold per
// partition. Call Finish once every task has committed.
func (s *Shuffle[K, V]) TaskWriters(n int) []*TaskWriter[K, V] {
	if n < 1 {
		n = 1
	}
	s.threshold = 0
	if b := s.opts.MemoryBudget; b > 0 {
		s.threshold = max(b/n, 1)
	}
	writers := make([]*TaskWriter[K, V], n)
	for i := range writers {
		w := &TaskWriter[K, V]{
			s:         s,
			lane:      s.opts.Recorder.Lane(obs.LaneWorker, i),
			live:      make([]map[K][]V, s.nparts),
			livePairs: make([]int, s.nparts),
			maxLive:   make([]int, s.nparts),
			events:    make([]int64, s.nparts),
			spilled:   make([]int64, s.nparts),
			pairs:     make([]int64, s.nparts),
			body:      make([]int64, s.nparts),
			index:     make([]int64, s.nparts),
		}
		if s.opts.SpillDir != "" && s.sealSink == nil {
			w.spool = &spool[K, V]{s: s}
		}
		writers[i] = w
	}
	s.residentMu.Lock()
	s.writers = writers
	s.residentMu.Unlock()
	return writers
}

// Begin starts one attempt of a map task on the writer.
func (w *TaskWriter[K, V]) Begin(task, attempt int) {
	w.task, w.attempt, w.err = task, attempt, nil
	clear(w.maxLive)
	clear(w.events)
	clear(w.spilled)
	clear(w.pairs)
	clear(w.body)
	clear(w.index)
}

// ErrNaNKey reports a key that is or holds a NaN. Such a key never
// equals itself, so it cannot find its own group and its values would
// be lost; the map task that emitted it fails instead.
var ErrNaNKey = errors.New("shuffle: key holds a NaN and cannot be grouped")

// Emit appends one pair to its partition's live run, sealing the run
// when it reaches the writer threshold. A seal failure or a NaN key
// (ErrNaNKey) is latched and returned by Commit; later pairs of the
// attempt are dropped.
func (w *TaskWriter[K, V]) Emit(k K, v V) {
	if w.err != nil {
		return
	}
	// A comparable value differs from itself exactly when it holds a
	// NaN, directly or in a field or element.
	if k != k {
		w.err = fmt.Errorf("%w: map task %d emitted key %v", ErrNaNKey, w.task, k)
		return
	}
	p := w.s.PartitionOf(k)
	live := w.live[p]
	if live == nil {
		live = make(map[K][]V)
		w.live[p] = live
	}
	vs, ok := live[k]
	if !ok && len(w.freeVs) > 0 {
		vs = w.grabSlice()
	}
	live[k] = append(vs, v)
	w.livePairs[p]++
	w.held.Add(1)
	if t := w.s.threshold; t > 0 && w.livePairs[p] >= t {
		w.err = w.seal(p, false)
	}
}

// grabSlice pops a recycled value slice.
func (w *TaskWriter[K, V]) grabSlice() []V {
	vs := w.freeVs[len(w.freeVs)-1]
	w.freeVs = w.freeVs[:len(w.freeVs)-1]
	return vs
}

// seal closes partition p's live run. With a combiner the run is
// combined first, and a combine that frees at least half the threshold
// cancels a threshold seal so combiner-friendly streams spill far less
// than their raw volume; tail seals (Commit) always go through.
func (w *TaskWriter[K, V]) seal(p int, tail bool) (err error) {
	s, live := w.s, w.live[p]
	n := w.livePairs[p]
	if n == 0 {
		return nil
	}
	w.maxLive[p] = max(w.maxLive[p], n)
	if s.combiner != nil {
		post := 0
		for k, vs := range live {
			cv := s.combiner(k, vs)
			if len(cv) == 0 {
				delete(live, k)
				continue
			}
			live[k] = cv
			post += len(cv)
		}
		w.release(n - post)
		n, w.livePairs[p] = post, post
		if n == 0 || !tail && n <= s.threshold/2 {
			return nil
		}
	}
	start := time.Now()
	w.lane.Begin(obs.OpSeal, int64(n), 0)
	defer func() {
		w.lane.End(obs.OpSeal, int64(n), errFlag(err))
		s.sealNs.Add(time.Since(start).Nanoseconds())
	}()
	switch {
	case s.sealSink != nil:
		if err := s.sealSink(p, sortedMapKeys(live), live); err != nil {
			return err
		}
		w.release(n)
		w.recycleLive(p)
	case w.spool != nil:
		if s.spillTypeErr != nil {
			return fmt.Errorf("shuffle: cannot spill: %w", s.spillTypeErr)
		}
		dr, body, idx, err := w.spool.addRunGroups(sortedMapKeys(live), live, int64(n))
		if err != nil {
			return err
		}
		dr.first, dr.last = w.task, w.task
		w.runs = append(w.runs, sealedRun[K, V]{part: p, disk: dr})
		w.body[p] += body
		w.index[p] += idx
		w.release(n)
		w.recycleLive(p)
	default:
		// The run keeps the value slices, its keys unsorted until Finish
		// folds the partition; the map's buckets stay with the writer for
		// its next live run.
		keys, vals := make([]K, 0, len(live)), make([][]V, 0, len(live))
		for k, vs := range live {
			keys, vals = append(keys, k), append(vals, vs)
		}
		w.runs = append(w.runs, sealedRun[K, V]{part: p, mem: memRun[K, V]{task: w.task, keys: keys, vals: vals}})
		clear(live)
	}
	if !tail {
		w.events[p]++
		w.spilled[p] += int64(n)
	}
	w.pairs[p] += int64(n)
	w.livePairs[p] = 0
	return nil
}

// release drops n pairs from the writer's count. The shuffle's
// resident total falls here, so its peak is taken first, under the
// lock every decrease holds.
func (w *TaskWriter[K, V]) release(n int) {
	if n == 0 {
		return
	}
	s := w.s
	s.residentMu.Lock()
	s.notePeakLocked()
	w.held.Add(int64(-n))
	s.residentMu.Unlock()
}

// recycleLive clears partition p's live run in place — keeping its
// buckets — and harvests the value slices, whose groups were encoded
// synchronously, for later emits. The harvest is capped so a stream
// whose key population shifts cannot grow the freelist without bound.
func (w *TaskWriter[K, V]) recycleLive(p int) {
	for _, vs := range w.live[p] {
		if cap(vs) > 0 && len(w.freeVs) < 8192 {
			clear(vs) // recycled capacity must pin no values
			w.freeVs = append(w.freeVs, vs[:0])
		}
	}
	clear(w.live[p])
}

// Commit seals the attempt's tail and registers all its runs with
// their partitions at the task's position in (task, seq) order. A seal
// error leaves nothing registered: the attempt is aborted and the
// error returned. An inline compaction error is returned after
// registration; the round must fail either way.
func (w *TaskWriter[K, V]) Commit() error {
	s := w.s
	for p := range w.live {
		if w.err == nil {
			w.err = w.seal(p, true)
		}
	}
	if w.err != nil {
		err := w.err
		w.Abort()
		return err
	}
	// Group the runs by partition; the stable sort keeps each
	// partition's runs in seal (seq) order.
	slices.SortStableFunc(w.runs, func(a, b sealedRun[K, V]) int { return a.part - b.part })
	for i := 0; i < len(w.runs); {
		j := i + 1
		for j < len(w.runs) && w.runs[j].part == w.runs[i].part {
			j++
		}
		if err := w.register(w.runs[i].part, w.runs[i:j]); err != nil && w.err == nil {
			w.err = err
		}
		i = j
	}
	clear(w.runs)
	w.runs = w.runs[:0]
	// Committed in-memory runs now belong to their partitions: the total
	// is unchanged, but the move must not be seen half done.
	if n := w.held.Load(); n > 0 {
		s.residentMu.Lock()
		s.committedResident += n
		w.held.Store(0)
		s.residentMu.Unlock()
	}
	// Mark the task committed only after every partition holds its runs:
	// compaction treats runs around a committed task as adjacent.
	s.commitMu.Lock()
	s.committed[w.task] = true
	s.commitMu.Unlock()
	s.invalidateStats()
	return w.err
}

// register inserts one partition's runs of the committing task (seal
// order, which is seq order) at the task's position and folds in the
// attempt's accounting for the partition.
func (w *TaskWriter[K, V]) register(p int, runs []sealedRun[K, V]) error {
	s, st := w.s, &w.s.parts[p]
	st.mu.Lock()
	defer st.mu.Unlock()
	if runs[0].disk.file != nil {
		at := len(st.disk)
		for at > 0 && st.disk[at-1].first > w.task {
			at--
		}
		for i, r := range runs {
			st.disk = slices.Insert(st.disk, at+i, r.disk)
		}
		st.spilledToDisk = true
	} else {
		at := len(st.mem)
		for at > 0 && st.mem[at-1].task > w.task {
			at--
		}
		for i, r := range runs {
			st.mem = slices.Insert(st.mem, at+i, r.mem)
		}
	}
	st.pairs += w.pairs[p]
	st.spillEvents += w.events[p]
	st.spilledPairs += w.spilled[p]
	st.bytesSpilled += w.body[p]
	st.indexBytes += w.index[p]
	st.maxLivePairs = max(st.maxLivePairs, w.maxLive[p])
	return s.maybeCompact(st, w.lane)
}

// Abort discards the attempt: live runs are dropped, sealed in-memory
// runs freed, and sealed sections released (their bytes count toward
// the spool's rotation trigger). The task may then be retried under a
// new attempt; none of the aborted attempt's pairs are visible.
func (w *TaskWriter[K, V]) Abort() {
	for p := range w.live {
		clear(w.live[p])
		w.livePairs[p] = 0
	}
	for _, r := range w.runs {
		if r.disk.file != nil {
			r.disk.file.dead.Add(r.disk.size)
			// A removal failure cannot be reported from Abort; the writer
			// still holds the file, and Close retries its removal.
			r.disk.file.release(w.s.fs, &w.s.bytesReclaimed)
		}
	}
	clear(w.runs)
	w.runs = w.runs[:0]
	w.release(int(w.held.Load()))
	w.lane.Instant(obs.OpFenceAbort, int64(w.task), int64(w.attempt))
}

// Finish ends the map phase: it releases the writers' spool handles,
// folds each partition's in-memory runs into one sorted run, runs any compaction
// that commits made possible late, waits out the background compaction
// queue, and returns its first error. After Finish the shuffle is ready
// for Stats and reads. A later map phase on the same shuffle must
// number its tasks above or below all earlier ones, since folded runs
// admit nothing between them.
func (s *Shuffle[K, V]) Finish() error {
	var first error
	for _, w := range s.writers {
		if w.spool != nil {
			if err := w.spool.close(&s.bytesReclaimed); err != nil && first == nil {
				first = err
			}
		}
	}
	// The writers' counts leave the total with them.
	s.residentMu.Lock()
	s.notePeakLocked()
	s.writers = nil
	s.residentMu.Unlock()
	// With every task committed nothing can land between a partition's
	// in-memory runs, and one sorted run reads without a merge.
	var wg sync.WaitGroup
	for p := range s.parts {
		if st := &s.parts[p]; len(st.mem) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.mem = []memRun[K, V]{foldRuns(st.mem)}
			}()
		}
	}
	wg.Wait()
	for p := range s.parts {
		st := &s.parts[p]
		st.mu.Lock()
		if err := s.maybeCompact(st, st.lane); err != nil && first == nil {
			first = err
		}
		st.mu.Unlock()
	}
	if err := s.waitCompactions(); err != nil && first == nil {
		first = err
	}
	s.invalidateStats()
	return first
}

// foldRuns concatenates in-memory runs into one with its keys in
// canonical order, each key's values in run order. A first pass sizes
// every key's values, so each key's slice is allocated once, exactly,
// and each source slice is dropped as soon as it is copied: the fold
// holds the partition's values about once, not once per run plus
// growth slack.
func foldRuns[K comparable, V any](runs []memRun[K, V]) memRun[K, V] {
	need := make(map[K]int, len(runs[0].keys))
	for _, r := range runs {
		for i, k := range r.keys {
			need[k] += len(r.vals[i])
		}
	}
	keys := sortedMapKeys(need)
	// Turn need into each key's slot, keeping the sizes by slot.
	vals, size := make([][]V, len(keys)), make([]int, len(keys))
	for j, k := range keys {
		size[j], need[k] = need[k], j
	}
	for _, r := range runs {
		for i, k := range r.keys {
			j := need[k]
			if vals[j] == nil {
				vals[j] = make([]V, 0, size[j])
			}
			vals[j] = append(vals[j], r.vals[i]...)
			r.vals[i] = nil
		}
	}
	return memRun[K, V]{task: runs[0].task, keys: keys, vals: vals}
}

// spool accumulates one writer's sealed runs as sections of one temp
// file, so a round's seals cost one file per writer instead of one per
// seal. The refcounted runFile keeps each section independently
// releasable (Abort drops only its own sections, compaction its
// inputs); the open writer holds one reference of its own, released by
// close; and rotation retires a file whose dead bytes outgrew
// Options.SpoolRotateBytes, so a long round reclaims disk instead of
// growing monotonically.
type spool[K comparable, V any] struct {
	s      *Shuffle[K, V]
	f      runfile.File
	rf     *runFile
	off    int64
	n      int             // sections written into the current file
	w      *runfile.Writer // reused across runs (Reset), nil until first run
	broken bool            // a failed append left bytes of unknown length; stop appending
}

// rotateEvery resolves Options.SpoolRotateBytes: the dead-byte
// threshold at which a spool rotates to a fresh file, 0 when rotation
// is disabled.
func rotateEvery(v int64) int64 {
	if v == 0 {
		return 4 << 20
	}
	if v < 0 {
		return 0
	}
	return v
}

// ensure opens the spool's current file, rotating first when the file
// has accumulated enough dead bytes. Rotation creates the replacement
// before letting go of the old file — a failed create keeps the old
// spool working, because rotation is an optimization, never
// correctness — then releases the writer's hold on the old file, which
// deletes it as soon as its last live section is released and credits
// the reclaimed bytes.
func (sp *spool[K, V]) ensure() error {
	s := sp.s
	if sp.broken {
		return fmt.Errorf("shuffle: spool %s unusable after earlier write failure", sp.rf.path)
	}
	if sp.f != nil {
		if re := rotateEvery(s.opts.SpoolRotateBytes); re > 0 && sp.rf.dead.Load() >= re {
			if f, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spool-*.run"); err == nil {
				old, oldRF := sp.f, sp.rf
				sp.f, sp.rf, sp.off, sp.n = f, &runFile{path: f.Name()}, 0, 0
				sp.rf.refs.Store(1)
				// The old handle is done: surviving sections are reopened
				// by path, so only the writer held it. Close errors are
				// unactionable here.
				old.Close()
				if rerr := oldRF.release(s.fs, &s.bytesReclaimed); rerr != nil {
					return fmt.Errorf("shuffle: removing rotated spool %s: %w", oldRF.path, rerr)
				}
			}
		}
		return nil
	}
	f, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spool-*.run")
	if err != nil {
		return fmt.Errorf("shuffle: creating spool: %w", err)
	}
	sp.f, sp.rf, sp.off, sp.n = f, &runFile{path: f.Name()}, 0, 0
	sp.rf.refs.Store(1) // the open writer's own hold, released by close
	return nil
}

// addRunGroups appends one grouped, combined run to the spool, keys in
// sorted order, reusing one runfile.Writer (and its write buffer)
// across every run the spool ever writes.
func (sp *spool[K, V]) addRunGroups(keys []K, groups map[K][]V, pairs int64) (dr diskRun[K], body, idx int64, retErr error) {
	if err := sp.ensure(); err != nil {
		return dr, 0, 0, err
	}
	if sp.w == nil {
		sp.w = runfile.NewWriter(sp.f)
	} else {
		sp.w.Reset(sp.f)
	}
	w := sp.w
	if err := writeGroups(w, sp.f.Name(), keys, groups); err != nil {
		sp.broken = true
		return dr, 0, 0, err
	}
	if err := w.Finish(); err != nil {
		sp.broken = true
		return dr, 0, 0, fmt.Errorf("shuffle: flushing spool %s: %w", sp.f.Name(), err)
	}
	dr = diskRun[K]{
		file: sp.rf, off: sp.off, size: w.BytesWritten(), pairs: pairs,
		index: typedIndex(keys, w.Index(), w.BodyBytes()),
	}
	sp.off += w.BytesWritten()
	sp.rf.size.Store(sp.off)
	sp.n++
	// Reference the run immediately: an abort or compaction may release
	// it long before the spool closes.
	sp.rf.refs.Add(1)
	return dr, w.BodyBytes(), w.BytesWritten() - w.BodyBytes(), nil
}

// close releases the writer's hold on the spool file (removing it when
// no recorded section survives; the removal credits reclaimed when
// non-nil) and closes the handle. Both the close and the removal can
// fail and both are reported — a leaked spill file is as real a failure
// as a leaked run file — except on a spool already marked broken, whose
// append failure surfaced first.
func (sp *spool[K, V]) close(reclaimed *atomic.Int64) error {
	if sp.f == nil {
		return nil
	}
	closeErr := sp.f.Close()
	releaseErr := sp.rf.release(sp.s.fs, reclaimed)
	sp.f, sp.w = nil, nil
	if sp.broken {
		return nil
	}
	if closeErr != nil && sp.n > 0 {
		return fmt.Errorf("shuffle: closing spool %s: %w", sp.rf.path, closeErr)
	}
	if releaseErr != nil {
		return fmt.Errorf("shuffle: removing spool %s: %w", sp.rf.path, releaseErr)
	}
	return nil
}
