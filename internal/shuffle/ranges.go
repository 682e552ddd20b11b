// Key-range splitting of the reduce merge: one partition's sorted key
// space is cut into balanced ranges, between distinct keys, so disjoint
// slices of the same partition can be merged and reduced concurrently.
//
// The plan comes entirely from the resident run indexes (a counting
// merge — no disk read): PlanReduceRanges walks the partition's groups
// in canonical order, accumulating pair counts, and closes a range at
// the next key once the accumulated load passes the target. Every
// admitted key type orders distinct keys apart (see order.go), so a
// key never straddles two ranges and the one-reducer-per-group
// contract survives the split.
//
// RangeReader is the one read surface, split or not: it opens the
// partition's spool files and run mappings once (openRunViews), and
// each ForEachGroupRange call builds its own clamped cursor set over
// subslices of the resident indexes, seeked by binary search; the zero
// KeyRange is the whole partition. Ranges emitted in plan order
// concatenate to exactly the whole-partition merge's group sequence,
// value-order contract included, which is the determinism argument: the
// split changes who reads a group, never what the group is or where it
// appears.
package shuffle

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// KeyRange is one planned slice of a partition's sorted key space:
// [Lo, Hi) in canonical key order, where an unset bound (HasLo/HasHi
// false) extends to the partition's edge. Lo is inside the range, Hi
// is the first key of the next one.
type KeyRange[K comparable] struct {
	Lo    K
	HasLo bool
	Hi    K
	HasHi bool
	// Pairs and Keys are the range's planned load from the resident
	// indexes — the weights range units are scheduled by.
	Pairs int64
	Keys  int64
}

// Contains reports whether k falls in the range under the canonical
// order (the comparator behind SortKeys).
func (r KeyRange[K]) Contains(k K) bool {
	compare := nativeCompare[K]()
	return (!r.HasLo || compare(k, r.Lo) >= 0) && (!r.HasHi || compare(k, r.Hi) < 0)
}

// PlanReduceRanges cuts the partition into key ranges of
// roughly targetPairs pairs each, weighted by the resident indexes'
// per-group counts (a pure in-memory counting merge — no run file is
// opened) and cut by PlanRangesFromCounts. maxRanges caps the cut; the
// final range absorbs whatever remains. Returns nil — meaning "don't
// split" — when targetPairs or maxRanges disables splitting, when the
// partition fits a single range, or when the counting pass fails (the
// range merge will surface the error).
func (p Partition[K, V]) PlanReduceRanges(targetPairs int64, maxRanges int) []KeyRange[K] {
	if targetPairs <= 0 || maxRanges <= 1 || p.Pairs() <= targetPairs {
		return nil
	}
	var keys []K
	var counts []int64
	err := p.forEachGroup(func(k K, count int) error {
		keys = append(keys, k)
		counts = append(counts, int64(count))
		return nil
	})
	if err != nil {
		return nil
	}
	return PlanRangesFromCounts(keys, counts, targetPairs, maxRanges)
}

// PlanRangesFromCounts cuts a sorted distinct-key sequence with per-key
// pair counts into ranges of roughly targetPairs pairs: a range closes
// once its load reaches the target, and the next key opens the next
// one. keys must be in canonical order (SortKeys). Returns nil when
// splitting is disabled or the sequence fits a single range.
func PlanRangesFromCounts[K comparable](keys []K, counts []int64, targetPairs int64, maxRanges int) []KeyRange[K] {
	if targetPairs <= 0 || maxRanges <= 1 || len(keys) == 0 {
		return nil
	}
	var ranges []KeyRange[K]
	var cur KeyRange[K]
	var curPairs, curKeys int64
	for i, k := range keys {
		if i > 0 && curPairs >= targetPairs && len(ranges) < maxRanges-1 {
			cur.Hi, cur.HasHi = k, true
			cur.Pairs, cur.Keys = curPairs, curKeys
			ranges = append(ranges, cur)
			cur = KeyRange[K]{Lo: k, HasLo: true}
			curPairs, curKeys = 0, 0
		}
		curPairs += counts[i]
		curKeys++
	}
	if len(ranges) == 0 {
		return nil
	}
	cur.Pairs, cur.Keys = curPairs, curKeys
	return append(ranges, cur)
}

// Clamp resolves the range to the [lo, hi) index window of keys, which
// must be sorted in canonical order.
func (r KeyRange[K]) Clamp(keys []K) (lo, hi int) {
	return clampRange(len(keys), func(i int) K { return keys[i] }, nativeCompare[K](), r)
}

// clampRange resolves a KeyRange to the [lo, hi) index window of a
// sorted key sequence. The sequence must be sorted in canonical order
// (it is: run indexes and sorted key slices are written that way).
func clampRange[K comparable](n int, keyAt func(int) K, compare func(a, b K) int, r KeyRange[K]) (lo, hi int) {
	lo, hi = 0, n
	if r.HasLo {
		lo = sort.Search(n, func(i int) bool { return compare(keyAt(i), r.Lo) >= 0 })
	}
	if r.HasHi {
		hi = sort.Search(n, func(i int) bool { return compare(keyAt(i), r.Hi) >= 0 })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// RangeReader reads disjoint key ranges of one partition concurrently.
// It holds the partition's read surface open once — spool handles and
// run mappings (openRunViews), the disk-read semaphore slot, the
// reduce-merge span — while any number of goroutines each run
// ForEachGroupRange over their own range. Close releases all of it.
// The partition must be quiescent (reduce phase): no concurrent writes.
type RangeReader[K comparable, V any] struct {
	s       *Shuffle[K, V]
	st      *partitionState[K, V]
	compare func(a, b K) int

	views    []runView // one per disk run, sharing per-file handles
	closeAll func()

	mem []memRun[K, V] // in-memory runs, in run order

	hasDisk   bool
	closeOnce sync.Once
	closeErr  error
}

// OpenRangeReader opens the partition's shared read surface for
// concurrent range merges. With disk runs it takes a disk-read
// semaphore slot and opens every spool handle and run mapping once,
// held until Close; the reduce-merge span covers the same window.
func (p Partition[K, V]) OpenRangeReader() (*RangeReader[K, V], error) {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return nil, fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}
	rr := &RangeReader[K, V]{s: p.s, st: st, compare: nativeCompare[K]()}
	if len(st.disk) > 0 {
		rr.hasDisk = true
		p.s.diskSem <- struct{}{}
		st.lane.Begin(obs.OpReduceMerge, int64(len(st.disk)), 0)
		views, closeAll, err := openRunViews(p.s, st.disk)
		if err != nil {
			closeAll()
			st.lane.End(obs.OpReduceMerge, 0, 1)
			<-p.s.diskSem
			return nil, err
		}
		rr.views, rr.closeAll = views, closeAll
	}
	rr.mem = st.mem
	return rr, nil
}

// Close releases the reader's handles, mappings, semaphore slot and
// span. Safe to call more than once; must not race ForEachGroupRange.
func (rr *RangeReader[K, V]) Close() error {
	rr.closeOnce.Do(func() {
		if rr.closeAll != nil {
			rr.closeAll()
		}
		if rr.hasDisk {
			rr.st.lane.End(obs.OpReduceMerge, 0, 0)
			<-rr.s.diskSem
		}
	})
	return rr.closeErr
}

// ForEachGroupRange streams the partition's groups inside r, in
// canonical key order, through fn; the zero KeyRange is the whole
// partition. A key's values concatenate across runs in (task, seq)
// order. With reuseValues false the value slices are stable and safe
// to retain (in-memory groups alias the shuffle's runs: treat them as
// read-only); with reuseValues true — the batch contract — a spilled
// group's slice is scratch the next group overwrites, valid only
// during the call. Every cursor is seeked to the range by binary search
// over its resident index and reads through the reader's shared views,
// so concurrent calls with disjoint ranges are safe and the
// concatenation of all planned ranges in order reproduces the
// whole-partition merge exactly.
func (rr *RangeReader[K, V]) ForEachGroupRange(r KeyRange[K], reuseValues bool, fn func(k K, vs []V) error) error {
	var cursors []*groupCursor[K, V]
	for i, dr := range rr.st.disk {
		idx := dr.index
		lo, hi := clampRange(len(idx), func(j int) K { return idx[j].key }, rr.compare, r)
		if lo == hi {
			continue
		}
		cursors = append(cursors, viewCursor[K, V](rr.views[i], i, idx[lo:hi], &rr.s.diskRead))
	}
	base := len(rr.st.disk)
	for i, run := range rr.mem {
		keys := run.keys
		lo, hi := clampRange(len(keys), func(j int) K { return keys[j] }, rr.compare, r)
		if lo == hi {
			continue
		}
		cursors = append(cursors, &groupCursor[K, V]{
			runIdx: base + i, memKeys: keys[lo:hi], memVals: run.vals[lo:hi],
		})
	}
	return mergeGroupCursors(cursors, rr.compare, true, reuseValues, func(k K, _ int, vs []V) error {
		return fn(k, vs)
	})
}
