package shuffle

import (
	"reflect"
	"testing"
)

// TestForEachGroupBatchMatchesPerGroup: the batch read contract must
// change only allocation behavior — keys, key order, values and value
// order are identical to the stable-slice read, across spilled and
// in-memory partitions, struct values included.
func TestForEachGroupBatchMatchesPerGroup(t *testing.T) {
	type pay struct {
		A int64
		B float64
	}
	for _, spillDir := range []string{"", t.TempDir()} {
		s := New[int, pay](Options{Partitions: 4, MemoryBudget: 8, SpillDir: spillDir})
		var pairs []Pair[int, pay]
		for i := 0; i < 400; i++ {
			pairs = append(pairs, Pair[int, pay]{i % 19, pay{A: int64(i), B: float64(i) / 4}})
		}
		writeTasks(t, s, 0, roundRobin(3, pairs), 3)
		type group struct {
			k  int
			vs []pay
		}
		for p := 0; p < s.NumPartitions(); p++ {
			var plain, batch []group
			if err := eachGroup(s.Partition(p), false, func(k int, vs []pay) error {
				plain = append(plain, group{k, vs})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := eachGroup(s.Partition(p), true, func(k int, vs []pay) error {
				// The slice is only valid during the call: copy to keep.
				batch = append(batch, group{k, append([]pay(nil), vs...)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, batch) {
				t.Fatalf("spillDir=%q partition %d: batch read diverges from per-group read", spillDir, p)
			}
		}
		s.Close()
	}
}

// TestForEachGroupBatchArenaAliasing pins the other half of the batch
// contract: the value slice is a view into reused scratch (and, for
// mapped run files, ultimately into memory that may be unmapped after
// the walk), valid only during the callback. A reducer that retains
// the previous group's slice across callbacks must observe it corrupt
// — loudly diverging from a copied snapshot — rather than silently
// holding stale-but-plausible data. If this test ever fails, the read
// path started copying per group and the zero-copy contract (and its
// allocation win) has quietly regressed.
func TestForEachGroupBatchArenaAliasing(t *testing.T) {
	const keys, perKey = 16, 32
	// Equal-size groups of a fixed-size value type, each whole in one
	// spilled run (the task's tail): every group's batch decodes into the
	// same-capacity scratch, so reuse is guaranteed to overwrite the
	// previous group's view. (A group spread over several runs is
	// concatenated into a fresh slice instead.)
	s := New[int, int](Options{Partitions: 1, MemoryBudget: keys * perKey, SpillDir: t.TempDir()})
	defer s.Close()
	var pairs []Pair[int, int]
	for i := 0; i < keys*perKey; i++ {
		pairs = append(pairs, Pair[int, int]{i % keys, i})
	}
	writeTask(t, s, pairs...)

	var retained, snapshot []int
	diverged := false
	err := eachGroup(s.Partition(0), true, func(_ int, vs []int) error {
		if retained != nil && !reflect.DeepEqual(retained, snapshot) {
			diverged = true
		}
		retained = vs // illegally kept past this callback
		snapshot = append(snapshot[:0], vs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatal("retained batch slice survived across callbacks intact: " +
			"the read path is copying per group instead of reusing scratch")
	}
}

// TestSetCombinerInvalidatesStatsMemo is the regression test for the
// memoization bug: Stats results were invalidated only by new data, so
// a SetCombiner between a Stats call and the next map phase could serve
// a profile that no longer described the shuffle's sealing behavior.
func TestSetCombinerInvalidatesStatsMemo(t *testing.T) {
	s := New[int, int](Options{Partitions: 2})
	var pairs []Pair[int, int]
	for i := 0; i < 20; i++ {
		pairs = append(pairs, Pair[int, int]{i % 3, i})
	}
	writeTask(t, s, pairs...)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 20 {
		t.Fatalf("Stats.Pairs = %d, want 20", st.Pairs)
	}
	s.statsMu.Lock()
	memoized := s.statsMemo != nil
	s.statsMu.Unlock()
	if !memoized {
		t.Fatal("Stats result was not memoized")
	}

	s.SetCombiner(func(_ int, vs []int) []int { return vs })

	s.statsMu.Lock()
	stale := s.statsMemo != nil
	s.statsMu.Unlock()
	if stale {
		t.Fatal("SetCombiner left a stale Stats memo in place")
	}
	// And Stats still recomputes correctly afterwards.
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 20 || st.Keys != 3 {
		t.Fatalf("recomputed Stats = pairs %d keys %d, want 20 and 3", st.Pairs, st.Keys)
	}
}
