package shuffle

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCompactionWithCollidingFormattedKeys: distinct struct keys whose
// fmt.Sprint forms collide, pushed through compaction at the run cap.
// The compiled key order separates them, so compaction must fold each
// key's groups across runs and copy every group correctly.
func TestCompactionWithCollidingFormattedKeys(t *testing.T) {
	type k2 struct{ A, B string }
	colliders := []k2{{"a b", "c"}, {"a", "b c"}} // both format as "{a b c}"
	s := New[k2, int](Options{Partitions: 2, MemoryBudget: 3, SpillDir: t.TempDir()})
	defer s.Close()
	s.SetPartitioner(func(k2) int { return 0 })
	var pairs []Pair[k2, int]
	want := make(map[k2][]int)
	// Unequal per-seal group sizes for the two colliders, plus a third
	// key, across enough seals to force compaction at the run cap.
	n := 3 * (maxDiskRunsPerPartition + 5)
	for i := 0; i < n; i++ {
		k := colliders[i%3%2] // 2 of every 3 pairs to collider 0, 1 to collider 1
		if i%7 == 0 {
			k = k2{"z", fmt.Sprint(i % 4)}
		}
		pairs = append(pairs, Pair[k2, int]{k, i})
		want[k] = append(want[k], i)
	}
	writeTask(t, s, pairs...)
	if got := len(s.parts[0].disk); got >= maxDiskRunFanIn {
		t.Fatalf("%d disk runs; compaction never triggered", got)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != int64(len(want)) {
		t.Errorf("Stats.Keys = %d, want %d", st.Keys, len(want))
	}
	got := make(map[k2][]int)
	if err := eachGroup(s.Partition(0), false, func(k k2, vs []int) error {
		if _, dup := got[k]; dup {
			t.Fatalf("key %+v emitted as two groups", k)
		}
		got[k] = append([]int(nil), vs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values diverge from reference after compaction of colliding keys")
	}
}
