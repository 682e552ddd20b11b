package shuffle

import (
	"errors"
	"testing"

	"repro/internal/errfs"
	"repro/internal/obs"
)

// TestTracingUnderFaultInjection marches the errfs failure points over
// the whole disk data path — seal, compaction, and the reduce-time
// merge — with the recorder armed. Two invariants: the injected error
// still surfaces wrapped (tracing must not swallow it), and every span
// opened on the way down is closed on the error path (the deferred
// Ends fire), so the snapshot stays balanced.
func TestTracingUnderFaultInjection(t *testing.T) {
	// OpRead never fires on the zero-copy read path and OpMmap/OpMadvise/
	// OpMunmap faults are absorbed by the pread fallback; the march
	// tolerates never-firing ops, and the balance check still covers the
	// spans around them.
	ops := []errfs.Op{
		errfs.OpCreate, errfs.OpWrite, errfs.OpClose, errfs.OpOpen,
		errfs.OpRead, errfs.OpReadAt, errfs.OpMmap, errfs.OpMadvise, errfs.OpMunmap,
	}
	for _, op := range ops {
		for nth := 1; nth <= 6; nth++ {
			fs := errfs.New(nil)
			fs.FailAt(op, nth, nil)
			rec := obs.NewRecorder(0)
			s := New[int, int](Options{
				Partitions: 1, MemoryBudget: 1, // one seal per pair: compaction runs
				SpillDir: t.TempDir(), FS: fs, Recorder: rec,
			})
			var pairs []Pair[int, int]
			for i := 0; i < maxDiskRunsPerPartition+2; i++ {
				pairs = append(pairs, Pair[int, int]{i % 5, i})
			}
			err := runTasks(s, 0, [][]Pair[int, int]{pairs}, 1)
			if err == nil {
				// Exercise the reduce-merge (open/read) path too.
				err = eachGroup(s.Partition(0), false, func(int, []int) error { return nil })
			}
			if err != nil && !errors.Is(err, errfs.ErrInjected) {
				t.Errorf("%v#%d: injected cause lost from the chain: %v", op, nth, err)
			}
			if berr := obs.CheckBalanced(rec.Snapshot()); berr != nil {
				t.Errorf("%v#%d: span left open on error path: %v", op, nth, berr)
			}
			s.Close()
		}
	}
}

// TestRecorderConcurrentStress streams many tasks through concurrent
// task writers into a spilling shuffle with a deliberately tiny ring:
// the writers' seals, aborts and the compactions all emit concurrently,
// the rings wrap, and the recorder must count drops instead of blocking
// or corrupting. Run under -race in CI.
func TestRecorderConcurrentStress(t *testing.T) {
	rec := obs.NewRecorder(16) // tiny: guarantees wrap under load
	s := New[int, int](Options{
		Partitions: 4, MemoryBudget: 8, SpillDir: t.TempDir(), Recorder: rec,
	})
	defer s.Close()

	const workers, tasks, pairs = 8, 32, 200
	all := make([][]Pair[int, int], tasks)
	for ti := range all {
		for i := 0; i < pairs; i++ {
			all[ti] = append(all[ti], Pair[int, int]{(ti*31 + i) % 97, i})
		}
	}
	writeTasks(t, s, 0, all, workers)

	// The run itself must be unharmed by recording...
	var total int64
	for p := 0; p < s.NumPartitions(); p++ {
		total += s.Partition(p).Pairs()
	}
	if want := int64(tasks * pairs); total != want {
		t.Errorf("pairs = %d, want %d", total, want)
	}
	// ...and the overload must show up as drops, not a hang.
	if rec.Dropped() == 0 {
		t.Error("tiny ring never wrapped: Dropped() = 0, want > 0")
	}
	// The snapshot is still well-formed (sorted, bounded) even after
	// wrap; balance is NOT guaranteed — wrap loses events by design.
	for _, lane := range rec.Snapshot() {
		for i := 1; i < len(lane.Events); i++ {
			if lane.Events[i].TS < lane.Events[i-1].TS {
				t.Fatalf("lane %s: timestamps out of order after wrap", lane.Name())
			}
		}
	}
}

// TestStatsGroupSizeLog2 pins the q-distribution histogram: bucket i
// counts the keys whose group size lands in [2^i, 2^(i+1)).
func TestStatsGroupSizeLog2(t *testing.T) {
	check := func(t *testing.T, opts Options) {
		t.Helper()
		s := New[int, int](opts)
		defer s.Close()
		// Group sizes: key 0 → 1 pair, key 1 → 3, key 2 → 4, key 3 → 9.
		sizes := []int{1, 3, 4, 9}
		var pairs []Pair[int, int]
		for k, n := range sizes {
			for i := 0; i < n; i++ {
				pairs = append(pairs, Pair[int, int]{k, i})
			}
		}
		writeTask(t, s, pairs...)
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		// 1 → bucket 0; 3 → bucket 1; 4 → bucket 2; 9 → bucket 3.
		want := []int64{1, 1, 1, 1}
		if len(st.GroupSizeLog2) != len(want) {
			t.Fatalf("GroupSizeLog2 = %v, want %v", st.GroupSizeLog2, want)
		}
		for i, n := range want {
			if st.GroupSizeLog2[i] != n {
				t.Fatalf("GroupSizeLog2 = %v, want %v", st.GroupSizeLog2, want)
			}
		}
	}
	t.Run("in-memory", func(t *testing.T) {
		check(t, Options{Partitions: 2})
	})
	t.Run("spilled", func(t *testing.T) {
		check(t, Options{Partitions: 2, MemoryBudget: 2, SpillDir: t.TempDir()})
	})
}

func TestLog2Bucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1 << 20: 20}
	for n, want := range cases {
		if got := log2Bucket(n); got != want {
			t.Errorf("log2Bucket(%d) = %d, want %d", n, got, want)
		}
	}
}
