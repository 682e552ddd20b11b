// Package shuffle implements the partitioned grouped shuffle that sits
// between the map and reduce phases of the mr runtime.
//
// The paper's whole subject is the data volume crossing this boundary
// (the communication cost, from which the replication rate r is derived)
// and how it is divided among reducers (the reducer size q). Keys are
// hashed into P partitions with hash/maphash's typed fast path, and the
// per-partition pair counts, key counts and largest key group that the
// package reports are properties of an actual execution.
//
// The map side has one data plane, the same in-process and in a proc
// worker. Each map task attempt writes through a single-writer
// TaskWriter that keeps one live run per partition and seals it —
// combine, sort, encode — when it reaches ⌊MemoryBudget/S⌋ pairs, S
// being the number of writers running at once. With a SpillDir a sealed
// run, the task's tail included, becomes a (task, attempt, seq) section
// of the writer's one spool file for the round; without one it stays
// in memory. A task's runs join their partitions only at Commit, in
// task order, and Abort releases them, so a key's values always arrive
// in (task, emission) order and a failed attempt is never visible. With
// a SpillDir the pairs held in memory stay at or under P*MemoryBudget.
//
// The read side has one k-way merge: a heap over the partition's runs
// driven by their resident indexes, which also plans the key ranges a
// partition's reduce splits into, cut between distinct keys. Proc reduce workers
// adopt their committed sections (Adopt) and read them through the
// same merge.
package shuffle

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// sharedSeed makes every Hasher in the process agree on key placement,
// so that independently created hashers (for example one per job round)
// route the same key to the same partition.
var sharedSeed = maphash.MakeSeed()

// pinnedHash is the WithSeed test hook: when armed, new Hashers place
// keys with a deterministic FNV-1a over the formatted key instead of
// the process-random maphash seed, so partition-placement-dependent
// observations (per-partition profiles, makespan, spill counts) are
// reproducible across runs and processes.
var pinnedHash struct {
	mu   sync.Mutex
	on   bool
	seed uint64
}

// WithSeed pins key placement to a deterministic seed and returns a
// restore func. Hashers (and therefore Shuffles and engine rounds)
// created between WithSeed and restore hash the canonical formatted
// key with seeded FNV-1a — slower, but identical in every process.
// Intended for tests; do not leave pinned in production paths.
func WithSeed(seed uint64) (restore func()) {
	pinnedHash.mu.Lock()
	prevOn, prevSeed := pinnedHash.on, pinnedHash.seed
	pinnedHash.on, pinnedHash.seed = true, seed
	pinnedHash.mu.Unlock()
	return func() {
		pinnedHash.mu.Lock()
		pinnedHash.on, pinnedHash.seed = prevOn, prevSeed
		pinnedHash.mu.Unlock()
	}
}

// Hasher hashes comparable keys with the runtime's typed hash.
type Hasher[K comparable] struct {
	seed   maphash.Seed
	pinned bool
	pseed  uint64
}

// NewHasher returns a Hasher using the process-wide seed, or the
// deterministic pinned hasher when WithSeed is in effect.
func NewHasher[K comparable]() Hasher[K] {
	pinnedHash.mu.Lock()
	on, ps := pinnedHash.on, pinnedHash.seed
	pinnedHash.mu.Unlock()
	if on {
		return Hasher[K]{pinned: true, pseed: ps}
	}
	return Hasher[K]{seed: sharedSeed}
}

// Hash returns a 64-bit hash of the key. This is the typed fast path:
// maphash.Comparable dispatches to the runtime's native hash for K's
// memory layout (memhash for fixed-size keys such as ints and structs,
// strhash for strings) with no formatting, boxing, or reflection.
func (h Hasher[K]) Hash(k K) uint64 {
	if h.pinned {
		const prime = 1099511628211
		hv := uint64(14695981039346656037) ^ (h.pseed * prime)
		s := fmt.Sprint(k)
		for i := 0; i < len(s); i++ {
			hv = (hv ^ uint64(s[i])) * prime
		}
		return hv
	}
	return maphash.Comparable(h.seed, k)
}

// Options configures a Shuffle.
type Options struct {
	// Partitions is the number of shuffle partitions P. Values <= 0
	// select DefaultPartitions(). The effective count is rounded up to
	// a power of two so partition selection is a mask, not a modulo.
	Partitions int

	// MemoryBudget is the per-partition memory budget, in pairs. The
	// budget is shared by the S task writers the map phase runs at once
	// (TaskWriters): each writer seals a partition's live run when it
	// reaches ⌊MemoryBudget/S⌋ pairs, so with a SpillDir the pairs held
	// in memory never exceed P*MemoryBudget. Zero disables sealing: each
	// task's output stays one run per partition.
	MemoryBudget int

	// SpillDir makes sealed runs real: each is encoded in sorted-key
	// order as a section of its writer's spool file under this directory
	// and dropped from memory. Read APIs stream a k-way merge over the
	// sections. Call Close to delete the files. When empty, sealed runs
	// stay in memory.
	SpillDir string

	// FS overrides the filesystem behind spill run files. Nil selects
	// the real filesystem (runfile.OSFS); fault-injection tests thread
	// an errfs.FS here to fail chosen creates, reads, writes and
	// closes.
	FS runfile.FS

	// Recorder, when non-nil, receives the shuffle's lifecycle events:
	// seals and aborts on the writing worker's lane, compactions on
	// per-worker compactor lanes, and reduce-time merges on the
	// partition's lane. Nil disables recording at the cost of one
	// nil-check per event.
	Recorder *obs.Recorder

	// CompactionConcurrency is the number of background workers that
	// compact a partition's disk runs once their count outgrows the
	// merge fan-in. Zero selects a small default (2); negative compacts
	// inline on the committing writer (deterministic scheduling for
	// tests).
	CompactionConcurrency int

	// SpoolRotateBytes bounds how many dead bytes — sections already
	// compacted away or aborted — a spool file may accumulate before it
	// is rotated: a fresh file takes over the writes and the old one is
	// deleted as soon as its last live section is released, so long
	// rounds reclaim disk instead of growing every spool monotonically.
	// Zero selects a 4 MiB default; negative disables rotation.
	// Reclaimed bytes are reported in Stats.BytesReclaimed.
	SpoolRotateBytes int64

	// DisableMmap forces the positioned-read (pread) fallback for run
	// file reads even where the platform supports memory mapping. Used
	// by tests that must exercise the fallback deterministically; the
	// default (mmap where available, automatic fallback otherwise)
	// is right for production.
	DisableMmap bool
}

// DefaultPartitions is the partition count used when Options.Partitions
// is unset: enough to keep every core busy during the merge and to give
// the LPT partition scheduler room to balance, rounded to a power of
// two and clamped to [8, 256].
func DefaultPartitions() int {
	p := runtime.GOMAXPROCS(0) * 4
	if p < 8 {
		p = 8
	}
	if p > 256 {
		p = 256
	}
	return ceilPow2(p)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Pair is one key-value pair.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Shuffle is a P-way partitioned grouped exchange from map tasks to
// reduce partitions.
type Shuffle[K comparable, V any] struct {
	hasher       Hasher[K]
	partitioner  func(K) int                                      // optional override; used by tests and schemas
	combiner     func(K, []V) []V                                 // optional associative pre-aggregation, applied at seal time
	sealSink     func(part int, keys []K, groups map[K][]V) error // optional seal redirect (SetSealSink)
	opts         Options
	nparts       int
	mask         uint64
	parts        []partitionState[K, V]
	closeMu      sync.Mutex
	closed       bool
	spillTypeErr error         // non-nil when K or V cannot survive a disk round trip
	fs           runfile.FS    // filesystem behind run files (OSFS unless injected)
	diskSem      chan struct{} // bounds concurrent multi-file disk reads (fd cap)
	diskRead     atomic.Int64  // bytes read back from spill run files

	// Map phase (see ingest.go): the current task writers, the
	// per-writer seal threshold ⌊MemoryBudget/len(writers)⌋, and the
	// set of committed tasks, which bounds what compaction may merge.
	writers   []*TaskWriter[K, V]
	threshold int
	commitMu  sync.Mutex
	committed map[int]bool

	// Async compaction (see compact.go): partitions over their run-count
	// bound are enqueued on compactCh (at most one entry per partition)
	// and merged by CompactionConcurrency background workers. compactWG
	// tracks queued + in-flight work; Finish and Close wait on it, and
	// the first worker error is surfaced through Finish.
	compactCh    chan int
	compactStart sync.Once
	compactWG    sync.WaitGroup
	compactMu    sync.Mutex // guards compactErr
	compactErr   error

	bytesReclaimed atomic.Int64 // spill-file bytes deleted mid-round (rotation, compaction)
	sealNs         atomic.Int64 // wall ns task writers spent sealing

	// Residency: the pairs held in shuffle memory are every task
	// writer's own count (TaskWriter.held) plus committedResident, the
	// committed in-memory runs. Emits only grow a writer's count; every
	// decrease of the total — a seal or combine release, an Abort, Finish
	// dropping the writers — takes residentMu and sums the total into
	// peakResident first. The total can only stop growing at a decrease,
	// so the peak is its exact high-water mark. The Commit hand-off of a
	// writer's count to committedResident takes the lock too, so no sum
	// sees the move half done.
	residentMu        sync.Mutex
	committedResident int64
	peakResident      int64

	statsMu   sync.Mutex
	statsMemo *Stats // memoized Stats, invalidated by every run change
}

// partitionState is one partition's committed runs, in (task, seq)
// order — the value order of every key. With a SpillDir every run is
// on disk; without one every run stays in memory. mu guards everything
// against concurrent commits and compactions.
type partitionState[K comparable, V any] struct {
	mu            sync.Mutex
	idx           int
	mem           []memRun[K, V] // in-memory runs, (task, seq) order
	disk          []diskRun[K]   // on-disk runs, (task, seq) order
	spilledToDisk bool           // ever had a disk run (sticky across Close)
	maxLivePairs  int            // largest live run any committed task sealed here
	pairs         int64
	spillEvents   int64
	spilledPairs  int64
	bytesSpilled  int64
	indexBytes    int64 // footer-index bytes written alongside run data

	// compacting marks that this partition is queued for (or undergoing)
	// asynchronous compaction; at most one queue entry per partition
	// exists, which is what lets enqueue sends never block.
	compacting bool

	// lane is the partition's observability ring (nil when the shuffle
	// has no Recorder). Reduce-merge spans land on it.
	lane *obs.Ring
}

// memRun is one in-memory run: a task's sealed groups for this
// partition — or, after Finish, all of them folded — with vals[i] the
// values of keys[i]: two flat slices, so a sealed run holds no map. A
// task's keys are unsorted; Finish folds the partition's runs into one
// with its keys in canonical order before any read.
type memRun[K comparable, V any] struct {
	task int
	keys []K
	vals [][]V
}

// New creates a shuffle with the given options. It panics when K has
// no canonical order; callers refuse such key types first
// (CheckKeyType).
func New[K comparable, V any](opts Options) *Shuffle[K, V] {
	if err := CheckKeyType[K](); err != nil {
		panic(err)
	}
	n := opts.Partitions
	if n <= 0 {
		n = DefaultPartitions()
	}
	n = ceilPow2(n)
	s := &Shuffle[K, V]{
		hasher:    NewHasher[K](),
		opts:      opts,
		nparts:    n,
		mask:      uint64(n - 1),
		parts:     make([]partitionState[K, V], n),
		committed: make(map[int]bool),
		diskSem:   make(chan struct{}, diskReadConcurrency),
	}
	for i := range s.parts {
		s.parts[i].idx = i
		// A nil Recorder hands out nil lanes; every emit is then a no-op.
		s.parts[i].lane = opts.Recorder.Lane(obs.LanePartition, i)
	}
	s.fs = opts.FS
	if s.fs == nil {
		s.fs = runfile.OSFS
	}
	if opts.SpillDir != "" {
		// Keys grouped after a disk round trip are compared with ==, so
		// a key type whose decoded copies can differ from the original
		// (gob drops unexported struct fields) must fail the first seal
		// loudly instead of merging groups; values must survive without
		// silent loss for the same reason.
		if err := runfile.CanRoundTripIdentity[K](); err != nil {
			s.spillTypeErr = fmt.Errorf("key type: %w", err)
		} else if err := runfile.CanRoundTripFidelity[V](); err != nil {
			s.spillTypeErr = fmt.Errorf("value type: %w", err)
		}
	}
	return s
}

// residentLocked is the number of pairs currently held in shuffle
// memory. s.residentMu must be held.
func (s *Shuffle[K, V]) residentLocked() int64 {
	n := s.committedResident
	for _, w := range s.writers {
		n += w.held.Load()
	}
	return n
}

// notePeakLocked raises the peak to the current total. s.residentMu
// must be held, so no decrease runs concurrently: writers' counts only
// grow while the sum is taken, and the sum is the total at an instant
// of an ordering of the same emits that is legal for every writer.
func (s *Shuffle[K, V]) notePeakLocked() {
	s.peakResident = max(s.peakResident, s.residentLocked())
}

// ResidentPairs is the number of pairs currently held in shuffle
// memory (live runs and in-memory sealed runs).
func (s *Shuffle[K, V]) ResidentPairs() int64 {
	s.residentMu.Lock()
	defer s.residentMu.Unlock()
	return s.residentLocked()
}

// PeakResidentPairs is the whole-round high-water mark of
// ResidentPairs: the largest total any release saw, or the current
// total if that is larger.
func (s *Shuffle[K, V]) PeakResidentPairs() int64 {
	s.residentMu.Lock()
	defer s.residentMu.Unlock()
	s.notePeakLocked()
	return s.peakResident
}

// SealNs is the wall time task writers spent sealing runs — combining,
// sorting, encoding and writing — all of it overlapped with mapping.
func (s *Shuffle[K, V]) SealNs() int64 { return s.sealNs.Load() }

// SetPartitioner overrides hash placement with an explicit key-to-
// partition function (reduced modulo the partition count). It must be
// called before any pair is emitted.
func (s *Shuffle[K, V]) SetPartitioner(fn func(K) int) {
	s.partitioner = fn
}

// invalidateStats drops the memoized Stats profile. Every mutation of
// a partition's runs — commits, compaction installs, adoptions — must
// route through this so a profile memoized mid-round is never served
// after the state it described has changed.
func (s *Shuffle[K, V]) invalidateStats() {
	s.statsMu.Lock()
	s.statsMemo = nil
	s.statsMu.Unlock()
}

// SetCombiner pushes an associative pre-aggregation down into the
// shuffle's sealing path: whenever a task writer's live run reaches its
// seal threshold, each key's buffered values are combined before the
// run is sealed, and combined again across runs when disk runs are
// compacted. Spilled bytes then track the post-combine communication
// cost rather than the raw emission stream, and a seal whose combine
// frees at least half the threshold is skipped entirely. The function
// must be semantically transparent the way a map-side combiner is —
// reduce(k, combine(vs)) == reduce(k, vs) for any split of vs — since
// sealing applies it to arbitrary prefixes of a key's values and may
// re-apply it to already-combined partials. It must be called before
// any pair is emitted.
func (s *Shuffle[K, V]) SetCombiner(fn func(key K, values []V) []V) {
	s.invalidateStats()
	s.combiner = fn
}

// SetSealSink redirects every sealed run to fn instead of the
// shuffle's own storage: whenever a task writer seals a partition's
// live run (threshold reached, or the task's tail at Commit), fn
// receives the partition index and the post-combine run — keys in
// canonical SortKeys order, values in emission order — and owns writing
// it somewhere durable before it returns; it must not retain groups.
// The shuffle keeps nothing and registers nothing, so the sink is the
// exchange medium. This is how internal/proc's map workers reuse the
// task writer — threshold sealing and combiner push-down — while
// keeping their own section/commit protocol. fn runs on the writing
// goroutine. Must be set before any pair is emitted.
func (s *Shuffle[K, V]) SetSealSink(fn func(part int, keys []K, groups map[K][]V) error) {
	s.sealSink = fn
}

// NumPartitions returns the effective partition count P.
func (s *Shuffle[K, V]) NumPartitions() int { return s.nparts }

// PartitionOf returns the partition a key routes to.
func (s *Shuffle[K, V]) PartitionOf(k K) int {
	if s.partitioner != nil {
		p := s.partitioner(k) % s.nparts
		if p < 0 {
			p += s.nparts
		}
		return p
	}
	return int(s.hasher.Hash(k) & s.mask)
}

// errFlag renders an error as the 0/1 "err" argument of a span's End
// event.
func errFlag(err error) int64 {
	if err != nil {
		return 1
	}
	return 0
}

// Partition is a read view of one shuffle partition.
type Partition[K comparable, V any] struct {
	s   *Shuffle[K, V]
	idx int
}

// Partition returns the view of partition p.
func (s *Shuffle[K, V]) Partition(p int) Partition[K, V] {
	return Partition[K, V]{s: s, idx: p}
}

// Pairs is the number of pairs the partition holds.
func (p Partition[K, V]) Pairs() int64 { return p.s.parts[p.idx].pairs }

// NumKeys is the number of distinct keys in the partition, merged from
// the runs' resident key lists and indexes — no disk read. NumKeys is a
// best-effort convenience view: an error (such as reads after Close)
// yields a zero or partial count — use ForEachGroupCount where errors
// must be observed.
func (p Partition[K, V]) NumKeys() int {
	n := 0
	p.forEachGroup(func(K, int) error { n++; return nil })
	return n
}

// SortedKeys returns the partition's distinct keys in the package's
// canonical deterministic order (see SortKeys), merging resident
// indexes for spilled runs (no disk read). Like NumKeys it is a
// best-effort view: an error yields a truncated slice.
func (p Partition[K, V]) SortedKeys() []K {
	var keys []K
	p.forEachGroup(func(k K, _ int) error {
		keys = append(keys, k)
		return nil
	})
	return keys
}

// ForEachGroupCount streams every group's key and size in sorted key
// order by merging the spilled runs' resident indexes with the
// in-memory runs — run files are never opened, so the pass is pure
// memory. This is the cheap pass for load profiling and overflow
// diagnosis; values are read through OpenRangeReader.
func (p Partition[K, V]) ForEachGroupCount(fn func(k K, count int) error) error {
	return p.forEachGroup(fn)
}

// Stats is the realized communication profile of the shuffle.
type Stats struct {
	// Partitions is the effective partition count P.
	Partitions int
	// Pairs is the total number of pairs shuffled (post-combine when the
	// caller combined before buffering).
	Pairs int64
	// Keys is the total number of distinct keys across partitions —
	// the number of reducers in the paper's sense.
	Keys int64
	// PartitionPairs, PartitionKeys and PartitionMaxGroup are the
	// per-partition profiles (pairs held, distinct keys, largest single
	// key group).
	PartitionPairs    []int64
	PartitionKeys     []int64
	PartitionMaxGroup []int64
	// MaxPartitionPairs is the heaviest partition's pair count; with
	// MeanPartitionPairs it quantifies partition skew.
	MaxPartitionPairs int64
	// MaxGroup is the largest single key group — the realized reducer
	// size q.
	MaxGroup int64
	// SpillEvents and SpilledPairs report bounded-memory pressure: how
	// many runs were sealed and how many pairs they held.
	SpillEvents  int64
	SpilledPairs int64
	// BytesSpilled is the encoded size of the run data committed tasks
	// sealed to disk — header and key groups, not the footer indexes —
	// so it tracks the communication volume the paper reasons about
	// (zero without a SpillDir). With a combiner pushed down
	// (SetCombiner) it tracks the post-combine communication cost. It
	// is a pure function of the per-task pair streams and the
	// configuration, invariant to scheduling, tracing and timing:
	// aborted attempts and compaction rewrites are not counted.
	// IndexBytesSpilled is the metadata written on top of it: the
	// prefix-compressed footer indexes of the same runs.
	BytesSpilled      int64
	IndexBytesSpilled int64
	// DiskBytesRead is the cumulative number of bytes read back from
	// spill run files, across reduce-time merges and compaction.
	// Computing Stats itself adds nothing to it: the counting pass
	// merges resident indexes in memory.
	DiskBytesRead int64
	// BytesReclaimed is the total size of spill files deleted while the
	// round was still running — spool rotation retiring dead sections
	// and compaction releasing its inputs — i.e. disk given back before
	// Close.
	BytesReclaimed int64
	// RunsMerged is the number of runs that the reduce-time k-way
	// merges combine, summed over the partitions holding more than one.
	RunsMerged int64
	// GroupSizeLog2 is the log2-bucketed distribution of key-group
	// sizes — the realized reducer-input (q) distribution the paper's
	// bounds are stated over. Bucket i counts the keys whose group size
	// lies in [2^i, 2^(i+1)); the slice is trimmed after the last
	// non-empty bucket (nil when the shuffle is empty).
	GroupSizeLog2 []int64
	// MaxLivePairs is the largest live run any committed task writer
	// held for one partition. Under a memory budget it never exceeds
	// the writer threshold ⌊MemoryBudget/S⌋.
	MaxLivePairs int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// held in shuffle memory at once: task writers' live runs and
	// in-memory sealed runs. With a SpillDir it stays at or under
	// P*MemoryBudget — the bound that makes the communication cost, not
	// the dataset size, the limit on resident memory.
	PeakResidentPairs int64
}

// Skew is max/mean partition load, 1 for a perfectly even exchange and
// 0 for an empty one.
func (st Stats) Skew() float64 {
	if st.Pairs == 0 || st.Partitions == 0 {
		return 0
	}
	mean := float64(st.Pairs) / float64(st.Partitions)
	return float64(st.MaxPartitionPairs) / mean
}

// String renders a one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf("P=%d pairs=%d keys=%d maxq=%d skew=%.2f spills=%d",
		st.Partitions, st.Pairs, st.Keys, st.MaxGroup, st.Skew(), st.SpillEvents)
}

// Stats computes the shuffle's realized profile. The walk is pure
// memory even for spilled partitions — each disk run's (key, count)
// index is resident, so no run file is read. The result is memoized:
// repeat calls return the cached profile (with the cumulative I/O
// counters — DiskBytesRead, BytesReclaimed — and the
// resident peak refreshed, since those keep accruing after the
// profile stabilizes) until the next mutation invalidates it. The error is non-nil only when the shuffle's
// spilled state is unreadable (for example after Close).
func (s *Shuffle[K, V]) Stats() (Stats, error) {
	s.statsMu.Lock()
	if s.statsMemo != nil {
		st := *s.statsMemo
		s.statsMu.Unlock()
		// Fresh per-partition slices, as a computed Stats would return:
		// a caller sorting or scaling its result must not corrupt the
		// memo for later calls.
		st.PartitionPairs = append([]int64(nil), st.PartitionPairs...)
		st.PartitionKeys = append([]int64(nil), st.PartitionKeys...)
		st.PartitionMaxGroup = append([]int64(nil), st.PartitionMaxGroup...)
		st.GroupSizeLog2 = append([]int64(nil), st.GroupSizeLog2...)
		st.DiskBytesRead = s.diskRead.Load()
		st.BytesReclaimed = s.bytesReclaimed.Load()
		st.PeakResidentPairs = s.PeakResidentPairs()
		return st, nil
	}
	s.statsMu.Unlock()
	st, err := s.computeStats()
	if err != nil {
		return st, err
	}
	memo := st
	s.statsMu.Lock()
	s.statsMemo = &memo
	s.statsMu.Unlock()
	return st, nil
}

// DiskBytesRead is the cumulative number of bytes read back from spill
// run files so far (see Stats.DiskBytesRead).
func (s *Shuffle[K, V]) DiskBytesRead() int64 { return s.diskRead.Load() }

func (s *Shuffle[K, V]) computeStats() (Stats, error) {
	st := Stats{
		Partitions:        s.nparts,
		PartitionPairs:    make([]int64, s.nparts),
		PartitionKeys:     make([]int64, s.nparts),
		PartitionMaxGroup: make([]int64, s.nparts),
	}
	type partProfile struct {
		keys     int64
		maxGroup int64
		log2     [64]int64 // group-size histogram: bucket i = [2^i, 2^(i+1))
	}
	profiles := make([]partProfile, s.nparts)
	errs := make([]error, s.nparts)
	var wg sync.WaitGroup
	for p := 0; p < s.nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// A pure in-memory pass: spilled runs contribute their
			// resident indexes.
			errs[p] = s.Partition(p).forEachGroup(func(_ K, count int) error {
				profiles[p].keys++
				if g := int64(count); g > profiles[p].maxGroup {
					profiles[p].maxGroup = g
				}
				profiles[p].log2[log2Bucket(count)]++
				return nil
			})
		}(p)
	}
	wg.Wait()
	var log2 [64]int64
	for p := 0; p < s.nparts; p++ {
		if errs[p] != nil {
			return st, errs[p]
		}
		ps := &s.parts[p]
		st.PartitionPairs[p] = ps.pairs
		st.PartitionKeys[p] = profiles[p].keys
		st.PartitionMaxGroup[p] = profiles[p].maxGroup
		st.Pairs += ps.pairs
		st.Keys += profiles[p].keys
		if ps.pairs > st.MaxPartitionPairs {
			st.MaxPartitionPairs = ps.pairs
		}
		if profiles[p].maxGroup > st.MaxGroup {
			st.MaxGroup = profiles[p].maxGroup
		}
		st.SpillEvents += ps.spillEvents
		st.SpilledPairs += ps.spilledPairs
		st.BytesSpilled += ps.bytesSpilled
		st.IndexBytesSpilled += ps.indexBytes
		if ps.maxLivePairs > st.MaxLivePairs {
			st.MaxLivePairs = ps.maxLivePairs
		}
		if nruns := len(ps.mem) + len(ps.disk); nruns > 1 {
			st.RunsMerged += int64(nruns)
		}
		for i := range log2 {
			log2[i] += profiles[p].log2[i]
		}
	}
	for i := len(log2) - 1; i >= 0; i-- {
		if log2[i] > 0 {
			st.GroupSizeLog2 = append([]int64(nil), log2[:i+1]...)
			break
		}
	}
	st.DiskBytesRead = s.diskRead.Load()
	st.BytesReclaimed = s.bytesReclaimed.Load()
	st.PeakResidentPairs = s.PeakResidentPairs()
	return st, nil
}

// log2Bucket maps a group size to its GroupSizeLog2 bucket:
// floor(log2(n)), with sizes < 1 folded into bucket 0.
func log2Bucket(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len64(uint64(n)) - 1
}
