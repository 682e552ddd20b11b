package shuffle

import (
	"cmp"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// roundRobin distributes pairs across nTasks task outputs round-robin,
// preserving emission order within each task.
func roundRobin[K comparable, V any](nTasks int, pairs []Pair[K, V]) [][]Pair[K, V] {
	tasks := make([][]Pair[K, V], nTasks)
	for i, p := range pairs {
		tasks[i%nTasks] = append(tasks[i%nTasks], p)
	}
	return tasks
}

// runTasks runs one map phase over the tasks — task i is tasks[i],
// numbered from base so a test can feed one shuffle several phases — on
// the given number of concurrent task writers, writer w running tasks
// w, w+writers, ... in order and committing each when it has emitted
// everything, then finishes the phase. Commits from different writers
// interleave in any order. It returns the first Commit or Finish error.
func runTasks[K comparable, V any](s *Shuffle[K, V], base int, tasks [][]Pair[K, V], writers int) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w, tw := range s.TaskWriters(writers) {
		wg.Add(1)
		go func(w int, tw *TaskWriter[K, V]) {
			defer wg.Done()
			for ti := w; ti < len(tasks); ti += writers {
				tw.Begin(base+ti, 0)
				for _, p := range tasks[ti] {
					tw.Emit(p.Key, p.Value)
				}
				if err := tw.Commit(); err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
				}
			}
		}(w, tw)
	}
	wg.Wait()
	return cmp.Or(first, s.Finish())
}

// writeTasks is runTasks failing the test on error.
func writeTasks[K comparable, V any](t testing.TB, s *Shuffle[K, V], base int, tasks [][]Pair[K, V], writers int) {
	t.Helper()
	if err := runTasks(s, base, tasks, writers); err != nil {
		t.Fatal(err)
	}
}

// writeTask runs a single task's pairs through one writer.
func writeTask[K comparable, V any](t testing.TB, s *Shuffle[K, V], pairs ...Pair[K, V]) {
	t.Helper()
	writeTasks(t, s, 0, [][]Pair[K, V]{pairs}, 1)
}

// eachGroup streams one partition's groups in key order through the
// partition's RangeReader over the whole key range; batch selects the
// scratch-slice contract.
func eachGroup[K comparable, V any](p Partition[K, V], batch bool, fn func(k K, vs []V) error) error {
	rr, err := p.OpenRangeReader()
	if err != nil {
		return err
	}
	defer rr.Close()
	return rr.ForEachGroupRange(KeyRange[K]{}, batch, fn)
}

// allGroups streams every partition's groups into one map (values
// copied).
func allGroups[K comparable, V any](t testing.TB, s *Shuffle[K, V]) map[K][]V {
	t.Helper()
	got := make(map[K][]V)
	for p := 0; p < s.NumPartitions(); p++ {
		err := eachGroup(s.Partition(p), false, func(k K, vs []V) error {
			if _, dup := got[k]; dup {
				t.Fatalf("key %v appears in more than one group", k)
			}
			got[k] = append([]V(nil), vs...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func TestGroupingMatchesNaiveMerge(t *testing.T) {
	var pairs []Pair[string, int]
	for i := 0; i < 500; i++ {
		pairs = append(pairs, Pair[string, int]{fmt.Sprintf("k%d", i%37), i})
	}
	s := New[string, int](Options{Partitions: 8})
	writeTasks(t, s, 0, roundRobin(4, pairs), 4)

	// Naive reference grouping in the same task-then-emission order the
	// shuffle guarantees: task 0's pairs first, then task 1's, ...
	want := make(map[string][]int)
	for task := 0; task < 4; task++ {
		for i := task; i < len(pairs); i += 4 {
			want[pairs[i].Key] = append(want[pairs[i].Key], pairs[i].Value)
		}
	}

	got := allGroups(t, s)
	var totalPairs int64
	for p := 0; p < s.NumPartitions(); p++ {
		totalPairs += s.Partition(p).Pairs()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouped values differ from naive merge")
	}
	if totalPairs != int64(len(pairs)) {
		t.Fatalf("partition pairs sum to %d, want %d", totalPairs, len(pairs))
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != int64(len(pairs)) || st.Keys != 37 {
		t.Fatalf("stats = %+v, want pairs=%d keys=37", st, len(pairs))
	}
	if st.MaxGroup < int64(len(pairs))/37 {
		t.Fatalf("MaxGroup = %d, too small", st.MaxGroup)
	}
}

func TestPartitionCountRoundsToPowerOfTwo(t *testing.T) {
	s := New[int, int](Options{Partitions: 5})
	if s.NumPartitions() != 8 {
		t.Fatalf("NumPartitions = %d, want 8", s.NumPartitions())
	}
	if d := DefaultPartitions(); d&(d-1) != 0 || d < 8 {
		t.Fatalf("DefaultPartitions = %d, want a power of two >= 8", d)
	}
}

func TestHasherIsStableAndSpreads(t *testing.T) {
	h1 := NewHasher[string]()
	h2 := NewHasher[string]()
	if h1.Hash("afrati") != h2.Hash("afrati") {
		t.Fatal("hashers disagree within one process")
	}
	// A hash that collapses to few values would starve partitions.
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[h1.Hash(fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct hashes over 1000 keys", len(seen))
	}
}

func TestStructKeysHashAndSort(t *testing.T) {
	type cell struct{ I, J int }
	s := New[cell, int](Options{Partitions: 4})
	var pairs []Pair[cell, int]
	for i := 0; i < 10; i++ {
		pairs = append(pairs, Pair[cell, int]{cell{i % 3, i % 2}, i})
	}
	writeTask(t, s, pairs...)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 6 {
		t.Fatalf("Keys = %d, want 6 distinct cells", st.Keys)
	}
	keys := []cell{{2, 0}, {0, 1}, {1, 0}, {0, 0}}
	SortKeys(keys)
	want := []cell{{0, 0}, {0, 1}, {1, 0}, {2, 0}}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("SortKeys(struct) = %v, want %v", keys, want)
	}
}

func TestSortKeysTypedPaths(t *testing.T) {
	ints := []int{5, 1, 3}
	SortKeys(ints)
	if !sort.IntsAreSorted(ints) {
		t.Errorf("ints not sorted: %v", ints)
	}
	u64 := []uint64{9, 2, 7}
	SortKeys(u64)
	if !(u64[0] == 2 && u64[1] == 7 && u64[2] == 9) {
		t.Errorf("uint64 not sorted: %v", u64)
	}
	f := []float64{2.5, -1, 0}
	SortKeys(f)
	if !sort.Float64sAreSorted(f) {
		t.Errorf("float64 not sorted: %v", f)
	}
	strs := []string{"b", "a", "c"}
	SortKeys(strs)
	if !sort.StringsAreSorted(strs) {
		t.Errorf("strings not sorted: %v", strs)
	}
}

func TestBoundedMemorySpillPressure(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MemoryBudget: 10})
	s.SetPartitioner(func(k int) int { return 0 }) // everything in partition 0
	const n = 95
	var pairs []Pair[int, int]
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair[int, int]{i % 7, i})
	}
	writeTask(t, s, pairs...)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Sealing at the budget is deterministic: 95 pairs against a
	// 10-pair budget (one writer holds all of it) seal exactly 9 runs
	// of 10 under pressure, and the 5-pair tail seals at commit. Finish
	// folds the 10 in-memory runs into one.
	if st.SpillEvents != 9 {
		t.Errorf("SpillEvents = %d, want exactly 9 runs of 10", st.SpillEvents)
	}
	if st.SpilledPairs != 90 {
		t.Errorf("spilled %d, want 90", st.SpilledPairs)
	}
	if st.MaxLivePairs != 10 {
		t.Errorf("MaxLivePairs = %d, want exactly the 10-pair budget", st.MaxLivePairs)
	}
	if st.RunsMerged != 0 || len(s.parts[0].mem) != 1 {
		t.Errorf("RunsMerged = %d over %d runs, want the in-memory runs folded into one", st.RunsMerged, len(s.parts[0].mem))
	}
	if st.Pairs != n || st.Keys != 7 {
		t.Errorf("stats = %+v, want pairs=%d keys=7", st, n)
	}

	// Grouping must be unaffected by sealing: values concatenate across
	// runs in emission order.
	part := s.Partition(0)
	if got := part.NumKeys(); got != 7 {
		t.Fatalf("NumKeys = %d, want 7", got)
	}
	groups := allGroups(t, s)
	for _, k := range part.SortedKeys() {
		var want []int
		for i := k; i < n; i += 7 {
			want = append(want, i)
		}
		if !reflect.DeepEqual(groups[k], want) {
			t.Fatalf("key %d values = %v, want %v", k, groups[k], want)
		}
	}
	if got := s.Partition(1).Pairs(); got != 0 {
		t.Errorf("partition 1 has %d pairs, want 0", got)
	}
}

func TestSetPartitionerRouting(t *testing.T) {
	s := New[string, int](Options{Partitions: 4})
	s.SetPartitioner(func(k string) int { return len(k) })
	writeTask(t, s,
		Pair[string, int]{"a", 1},     // len 1 -> partition 1
		Pair[string, int]{"bb", 2},    // len 2 -> partition 2
		Pair[string, int]{"ccccc", 3}, // len 5 % 4 -> partition 1
	)
	if got := s.Partition(1).NumKeys(); got != 2 {
		t.Errorf("partition 1 keys = %d, want 2", got)
	}
	if got := s.Partition(2).NumKeys(); got != 1 {
		t.Errorf("partition 2 keys = %d, want 1", got)
	}
	if got := s.Partition(0).Pairs() + s.Partition(3).Pairs(); got != 0 {
		t.Errorf("partitions 0,3 hold %d pairs, want 0", got)
	}
}

// TestMergeAccumulatesAcrossCalls feeds one shuffle two map phases, the
// second committing its task ahead of the first's in task order: the
// values must read back in task order, not commit order.
func TestMergeAccumulatesAcrossCalls(t *testing.T) {
	s := New[int, int](Options{Partitions: 2})
	writeTasks(t, s, 1, [][]Pair[int, int]{{{1, 20}}}, 1)
	writeTasks(t, s, 0, [][]Pair[int, int]{{{1, 10}}}, 1)
	if got := allGroups(t, s)[1]; !reflect.DeepEqual(got, []int{10, 20}) {
		t.Fatalf("values of 1 = %v, want [10 20]", got)
	}
}

func TestStatsSkewAndString(t *testing.T) {
	s := New[int, int](Options{Partitions: 2})
	s.SetPartitioner(func(k int) int { return k % 2 })
	var pairs []Pair[int, int]
	for i := 0; i < 9; i++ {
		pairs = append(pairs, Pair[int, int]{0, i}) // all on partition 0
	}
	writeTask(t, s, append(pairs, Pair[int, int]{1, 1})...)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Skew() <= 1 {
		t.Errorf("Skew = %v, want > 1 for a lopsided exchange", st.Skew())
	}
	if s := st.String(); s == "" {
		t.Error("empty Stats.String()")
	}
	if (Stats{}).Skew() != 0 {
		t.Error("empty stats should have zero skew")
	}
}

func TestEmptyShuffle(t *testing.T) {
	s := New[string, int](Options{})
	writeTasks[string, int](t, s, 0, nil, 1)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 0 || st.Keys != 0 || st.MaxGroup != 0 {
		t.Fatalf("empty shuffle stats = %+v", st)
	}
	if got := s.Partition(0).SortedKeys(); len(got) != 0 {
		t.Fatalf("SortedKeys on empty partition = %v", got)
	}
}
