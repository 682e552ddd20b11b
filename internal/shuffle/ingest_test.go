package shuffle

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/errfs"
)

// ingestTasks builds deterministic per-task pair slices: task t emits
// seq pairs (key = (t*7+i) % keys, value = t*1e6 + i) in order, so a
// value encodes exactly which (task, seq) produced it and the global
// expected value order of a key is reconstructible.
func ingestTasks(nTasks, perTask, keys int) [][]Pair[int, int] {
	tasks := make([][]Pair[int, int], nTasks)
	for t := range tasks {
		ps := make([]Pair[int, int], perTask)
		for i := range ps {
			ps[i] = Pair[int, int]{Key: (t*7 + i) % keys, Value: t*1_000_000 + i}
		}
		tasks[t] = ps
	}
	return tasks
}

// taskOrder is the reference grouping: every key's values in (task
// order, emission order).
func taskOrder(tasks [][]Pair[int, int]) map[int][]int {
	want := make(map[int][]int)
	for _, ps := range tasks {
		for _, p := range ps {
			want[p.Key] = append(want[p.Key], p.Value)
		}
	}
	return want
}

// TestStreamingMatchesMerge pins the value-order contract: for the same
// tasks, every key's concatenated values must equal the (task order,
// emission order) reference whether the shuffle was fed by one writer
// or by concurrent writers committing out of order, across spill on
// and off. With the combiner pushed down only the per-key sums are
// comparable, since combine points depend on the writer threshold.
func TestStreamingMatchesMerge(t *testing.T) {
	const nTasks, perTask, keys = 24, 50, 17
	tasks := ingestTasks(nTasks, perTask, keys)
	want := taskOrder(tasks)
	sum := func(_ int, vs []int) []int {
		total := 0
		for _, v := range vs {
			total += v
		}
		return []int{total}
	}
	for _, tc := range []struct {
		name    string
		spill   bool
		combine bool
	}{
		{"in-memory", false, false},
		{"spill", true, false},
		{"spill-combiner", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, writers := range []int{1, 4} {
				opts := Options{Partitions: 4, MemoryBudget: 32}
				if tc.spill {
					opts.SpillDir = t.TempDir()
				}
				s := New[int, int](opts)
				if tc.combine {
					s.SetCombiner(sum)
				}
				writeTasks(t, s, 0, tasks, writers)
				got := allGroups(t, s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if tc.combine {
					for k, vs := range want {
						if ws, gs := sum(k, vs)[0], sum(k, got[k])[0]; ws != gs {
							t.Fatalf("%d writers, key %d: sum %d, want %d", writers, k, gs, ws)
						}
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					for k := range want {
						if !reflect.DeepEqual(got[k], want[k]) {
							t.Fatalf("%d writers, key %d values diverge\ngot  %v\nwant %v", writers, k, got[k], want[k])
						}
					}
					t.Fatalf("%d writers: group sets diverge: %d keys, want %d", writers, len(got), len(want))
				}
			}
		})
	}
}

// TestStreamingAbortFencesFlushedPairs emits a full task, aborts it
// after it sealed sections to disk, retries it under a new attempt, and
// requires that none of the aborted attempt's pairs are visible, that
// the retry's and a later task's pairs all are — in task order although
// task 1 committed first — and that no spill file outlives Close.
func TestStreamingAbortFencesFlushedPairs(t *testing.T) {
	const budget = 8
	fs := errfs.New(nil)
	spillDir := t.TempDir()
	s := New[int, int](Options{
		Partitions: 1, MemoryBudget: budget, SpillDir: spillDir, FS: fs,
	})
	defer s.Close()
	tw := s.TaskWriters(1)[0]

	// Task 1 commits first; task 0's runs must still read back ahead of
	// it.
	tw.Begin(1, 0)
	for i := 0; i < 64; i++ {
		tw.Emit(i%5, 1000+i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}

	// Task 0 attempt 0: emits everything (sealing sections along the
	// way under this tiny budget), then fails.
	creates := fs.Calls(errfs.OpCreate)
	tw.Begin(0, 0)
	for i := 0; i < 64; i++ {
		tw.Emit(i%5, -1) // poison values: must never appear
	}
	if fs.Calls(errfs.OpWrite) == 0 || creates == 0 {
		t.Fatal("attempt never spilled; the fencing path is not exercised")
	}
	tw.Abort()

	tw.Begin(0, 1)
	for i := 0; i < 64; i++ {
		tw.Emit(i%5, i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 128 {
		t.Fatalf("Pairs = %d, want 128 (64 from each committed task)", st.Pairs)
	}
	got := allGroups(t, s)
	total := 0
	for k, vs := range got {
		// Task order: task 0's retry values (i) precede task 1's (1000+i).
		for i, v := range vs {
			if v < 0 {
				t.Fatalf("key %d: aborted attempt's value %d leaked", k, v)
			}
			if i > 0 && vs[i-1] >= 1000 && v < 1000 {
				t.Fatalf("key %d: task order violated: %v", k, vs)
			}
		}
		total += len(vs)
	}
	if total != 128 {
		t.Fatalf("streamed %d pairs, want 128", total)
	}

	// Every spill file — including the spool holding aborted sections —
	// is gone after Close.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill dir not empty after Close: %d files remain", len(entries))
	}
}

// TestPeakResidentBound is the whole-round memory assertion: a dataset
// many times the total budget, written by concurrent task writers that
// share the budget, must keep peak resident pairs at or under
// P*MemoryBudget — live runs and in-memory sealed runs alike counted —
// and at or above one sealed run, which a writer held when it sealed.
// Run under -race it is also the concurrency check of the per-writer
// counts.
func TestPeakResidentBound(t *testing.T) {
	const (
		parts   = 4
		budget  = 256
		workers = 4
		nTasks  = 32
		perTask = 1024 // 32k pairs ~ 32x the total budget
	)
	tasks := ingestTasks(nTasks, perTask, 301)
	s := New[int, int](Options{
		Partitions: parts, MemoryBudget: budget, SpillDir: t.TempDir(),
	})
	defer s.Close()
	writeTasks(t, s, 0, tasks, workers)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != nTasks*perTask {
		t.Fatalf("Pairs = %d, want %d", st.Pairs, nTasks*perTask)
	}
	if st.MaxLivePairs > budget/workers {
		t.Errorf("MaxLivePairs = %d exceeds the writer threshold %d", st.MaxLivePairs, budget/workers)
	}
	if bound := int64(parts * budget); st.PeakResidentPairs > bound {
		t.Errorf("PeakResidentPairs = %d exceeds P*MemoryBudget = %d", st.PeakResidentPairs, bound)
	}
	if threshold := int64(budget / workers); st.PeakResidentPairs < threshold {
		t.Errorf("PeakResidentPairs = %d below one sealed run of %d pairs", st.PeakResidentPairs, threshold)
	}
	if s.ResidentPairs() != 0 {
		t.Errorf("ResidentPairs = %d after a spilled round, want 0", s.ResidentPairs())
	}
	// Everything still streams back complete and in order.
	got := allGroups(t, s)
	total := 0
	for _, vs := range got {
		total += len(vs)
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				t.Fatalf("value order violated: %d before %d", vs[i-1], vs[i])
			}
		}
	}
	if total != nTasks*perTask {
		t.Fatalf("streamed %d pairs, want %d", total, nTasks*perTask)
	}

	// Without a SpillDir nothing is ever released, so the peak is exactly
	// the pair count, however the writers' emits interleaved.
	mem := New[int, int](Options{Partitions: parts, MemoryBudget: budget})
	defer mem.Close()
	writeTasks(t, mem, 0, tasks, workers)
	if peak, res := mem.PeakResidentPairs(), mem.ResidentPairs(); peak != nTasks*perTask || res != nTasks*perTask {
		t.Errorf("in memory: PeakResidentPairs = %d, ResidentPairs = %d, want both %d", peak, res, nTasks*perTask)
	}
}

// TestStreamingStress is the -race workout: many writers committing
// concurrently into few partitions with a tiny budget (constant sealing
// and compaction), injected aborts with retries, and a final exact
// comparison of every key's value sequence against the single-threaded
// expectation.
func TestStreamingStress(t *testing.T) {
	const (
		nTasks, perTask, keys = 60, 40, 11
		workers               = 8
	)
	tasks := ingestTasks(nTasks, perTask, keys)
	s := New[int, int](Options{
		Partitions: 2, MemoryBudget: 16, SpillDir: t.TempDir(),
	})
	defer s.Close()

	rng := rand.New(rand.NewSource(42))
	abortFirst := make([]bool, nTasks) // decided up front; workers read only
	for i := range abortFirst {
		abortFirst[i] = rng.Intn(3) == 0
	}
	var wg sync.WaitGroup
	taskCh := make(chan int)
	for _, tw := range s.TaskWriters(workers) {
		wg.Add(1)
		go func(tw *TaskWriter[int, int]) {
			defer wg.Done()
			for ti := range taskCh {
				attempt := 0
				if abortFirst[ti] {
					tw.Begin(ti, attempt)
					// Emit a prefix (sealing some runs), then abort.
					for _, p := range tasks[ti][:perTask/2] {
						tw.Emit(p.Key, -p.Value-1) // poison
					}
					tw.Abort()
					attempt++
				}
				tw.Begin(ti, attempt)
				for _, p := range tasks[ti] {
					tw.Emit(p.Key, p.Value)
				}
				if err := tw.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(tw)
	}
	for ti := range tasks {
		taskCh <- ti
	}
	close(taskCh)
	wg.Wait()
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	want := taskOrder(tasks)
	got := allGroups(t, s)
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("key %d diverges\ngot  %v\nwant %v", k, got[k], want[k])
			}
		}
		t.Fatal("group sets diverge")
	}
}

// TestStreamingFaultInjection marches errfs failures through the task
// writers' disk surface — spool creates, section writes, closes — and
// requires the injected cause to surface wrapped from Commit or Finish,
// with Close still cleaning up.
func TestStreamingFaultInjection(t *testing.T) {
	tasks := make([][]Pair[int, int], 6)
	for ti := range tasks {
		for i := 0; i < 32; i++ {
			tasks[ti] = append(tasks[ti], Pair[int, int]{i % 5, ti*100 + i})
		}
	}
	workload := func(fs *errfs.FS) error {
		s := New[int, int](Options{
			Partitions: 1, MemoryBudget: 4, SpillDir: t.TempDir(), FS: fs,
		})
		defer s.Close()
		return runTasks(s, 0, tasks, 2)
	}

	// Probe: count a clean run's operations. (Creates are few by
	// design: each of the two writers' spools holds every section it
	// seals in the round.)
	probe := errfs.New(nil)
	if err := workload(probe); err != nil {
		t.Fatalf("clean streaming run failed: %v", err)
	}
	creates, writes, closes := probe.Calls(errfs.OpCreate), probe.Calls(errfs.OpWrite), probe.Calls(errfs.OpClose)
	if creates < 2 || writes < 3 || closes < 2 {
		t.Fatalf("clean run did %d creates / %d writes / %d closes; spill path never engaged",
			creates, writes, closes)
	}

	cases := []struct {
		name string
		op   errfs.Op
		nth  int
	}{
		{"create-first", errfs.OpCreate, 1},
		{"create-last", errfs.OpCreate, creates},
		{"write-first", errfs.OpWrite, 1},
		{"write-mid", errfs.OpWrite, writes / 2},
		{"write-last", errfs.OpWrite, writes},
		{"close-first", errfs.OpClose, 1},
		{"close-last", errfs.OpClose, closes},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		key := string(tc.op) + ":" + strconv.Itoa(tc.nth)
		if tc.nth < 1 || seen[key] {
			continue // ordinals collapse when the probe found few calls
		}
		seen[key] = true
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(tc.op, tc.nth, nil)
			err := workload(fs)
			if err == nil {
				t.Fatal("streaming ingestion succeeded despite injected failure")
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if !strings.Contains(err.Error(), "spill") && !strings.Contains(err.Error(), "spool") &&
				!strings.Contains(err.Error(), "compact") {
				t.Fatalf("err = %v, want a spill/spool/compaction context", err)
			}
		})
	}
}

// TestSpoolRotationFaultTolerance marches an injected create failure
// over every file-create a rotating round performs. Spool
// rotation creates the replacement file before retiring the old one,
// and a failed rotation create is opportunistic — the round keeps the
// old spool and carries on. So each ordinal must end one of two ways:
// the round fails with the injected cause wrapped (a mandatory create
// — first spool, compaction output), or it succeeds with
// byte-identical output (a rotation create). At least one ordinal must
// take the survivable path, proving rotation actually engaged.
func TestSpoolRotationFaultTolerance(t *testing.T) {
	const nTasks, perTask, keys = 12, 48, 7
	tasks := ingestTasks(nTasks, perTask, keys)
	want := taskOrder(tasks)

	run := func(fs *errfs.FS, rotate int64) (map[int][]int, Stats, error) {
		// Budget 4: 144 sections, enough to cross the compaction bound,
		// whose released inputs are the dead bytes rotation reclaims.
		s := New[int, int](Options{
			Partitions: 1, MemoryBudget: 4, SpillDir: t.TempDir(), FS: fs,
			SpoolRotateBytes: rotate,
			// Inline compaction keeps the round single-threaded, so the
			// create ordinals are deterministic and the march is exact.
			CompactionConcurrency: -1,
		})
		defer s.Close()
		tw := s.TaskWriters(1)[0]
		var firstErr error
		for ti := range tasks {
			tw.Begin(ti, 0)
			for _, p := range tasks[ti] {
				tw.Emit(p.Key, p.Value)
			}
			if err := tw.Commit(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := s.Finish(); err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			return nil, Stats{}, firstErr
		}
		st, err := s.Stats()
		if err != nil {
			return nil, Stats{}, err
		}
		return allGroups(t, s), st, nil
	}

	// Probe: rotation (threshold 1: any dead byte rotates) must create
	// more files than the non-rotating round, and reclaim disk while the
	// round still runs.
	plain := errfs.New(nil)
	if _, _, err := run(plain, -1); err != nil {
		t.Fatalf("non-rotating round failed: %v", err)
	}
	probe := errfs.New(nil)
	got, st, err := run(probe, 1)
	if err != nil {
		t.Fatalf("rotating round failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rotating round output diverges")
	}
	creates := probe.Calls(errfs.OpCreate)
	if creates <= plain.Calls(errfs.OpCreate) {
		t.Fatalf("rotation never created a replacement spool: %d creates with rotation, %d without",
			creates, plain.Calls(errfs.OpCreate))
	}
	if st.BytesReclaimed == 0 {
		t.Fatal("rotating round reclaimed nothing mid-round")
	}

	survived := 0
	for nth := 1; nth <= creates; nth++ {
		fs := errfs.New(nil)
		fs.FailAt(errfs.OpCreate, nth, nil)
		got, _, err := run(fs, 1)
		if err != nil {
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("create#%d: injected cause lost from the chain: %v", nth, err)
			}
			continue
		}
		survived++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("create#%d: round survived the fault but its output diverges", nth)
		}
	}
	if survived == 0 {
		t.Fatal("every create ordinal was fatal: the opportunistic rotation create never engaged")
	}
}

// TestStreamingStatsInvalidation pins the memoized-Stats contract
// during a map phase: a Stats call mid-round memoizes the profile, and
// every later mutation — commits, background compactions — must
// invalidate that memo so the post-Finish Stats reflects the whole
// round. (Same regression shape as the SetCombiner staleness fix: a
// mutation path that forgets to invalidate serves the stale profile.)
func TestStreamingStatsInvalidation(t *testing.T) {
	const perTask = 64
	s := New[int, int](Options{
		Partitions: 2, MemoryBudget: 8, SpillDir: t.TempDir(),
	})
	defer s.Close()
	tw := s.TaskWriters(1)[0]

	tw.Begin(0, 0)
	for i := 0; i < perTask; i++ {
		tw.Emit(i%5, i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}

	// Memoize mid-round, twice: the second call must hit the memo path,
	// so whatever the third call sees went through invalidation.
	st1, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}

	tw.Begin(1, 0)
	for i := 0; i < perTask; i++ {
		tw.Emit(i%5, 1000+i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	st2, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pairs != 2*perTask {
		t.Fatalf("stale Stats memo: post-Finish Pairs = %d, want %d (mid-round memo saw %d)",
			st2.Pairs, 2*perTask, st1.Pairs)
	}
	// The whole round is 8x the total budget, so the second half must
	// have added spill volume on top of whatever the memo captured.
	if st2.BytesSpilled <= st1.BytesSpilled {
		t.Fatalf("stale Stats memo: BytesSpilled %d not above mid-round %d",
			st2.BytesSpilled, st1.BytesSpilled)
	}
	got := allGroups(t, s)
	total := 0
	for _, vs := range got {
		total += len(vs)
	}
	if total != 2*perTask {
		t.Fatalf("streamed %d pairs, want %d", total, 2*perTask)
	}
}

// TestStreamingEmptyAndSingleTask covers the degenerate shapes: no
// tasks at all, and one task owning every pair.
func TestStreamingEmptyAndSingleTask(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MemoryBudget: 8, SpillDir: t.TempDir()})
	defer s.Close()
	writeTasks(t, s, 0, nil, 1)

	s2 := New[int, int](Options{Partitions: 2, MemoryBudget: 8, SpillDir: t.TempDir()})
	defer s2.Close()
	const n = 512
	task := make([]Pair[int, int], n)
	for i := range task {
		task[i] = Pair[int, int]{i % 7, i}
	}
	writeTask(t, s2, task...)
	st, err := s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != n {
		t.Fatalf("Pairs = %d, want %d", st.Pairs, n)
	}
	// One giant task: the bound still holds because the task's runs
	// seal to disk as it maps instead of accumulating in memory.
	if bound := int64(2 * 8); st.PeakResidentPairs > bound {
		t.Errorf("single-task PeakResidentPairs = %d exceeds P*MemoryBudget = %d", st.PeakResidentPairs, bound)
	}
	got := allGroups(t, s2)
	total := 0
	for _, vs := range got {
		total += len(vs)
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				t.Fatalf("value order violated: %v", vs)
			}
		}
	}
	if total != n {
		t.Fatalf("streamed %d pairs, want %d", total, n)
	}
}

// appendFold is the fold as it was before it sized values exactly: one
// map of appended value slices, keys sorted at the end.
func appendFold[K comparable, V any](runs []memRun[K, V]) memRun[K, V] {
	groups := make(map[K][]V)
	for _, r := range runs {
		for i, k := range r.keys {
			groups[k] = append(groups[k], r.vals[i]...)
		}
	}
	keys := sortedMapKeys(groups)
	vals := make([][]V, len(keys))
	for i, k := range keys {
		vals[i] = groups[k]
	}
	return memRun[K, V]{task: runs[0].task, keys: keys, vals: vals}
}

// TestFinishFoldExactSize: after Finish an in-memory partition is one
// run whose every value slice is exactly sized (len == cap) and holds
// the key's values in task order, and the folded run equals what the
// appending fold produced from the same runs.
func TestFinishFoldExactSize(t *testing.T) {
	for _, nTasks := range []int{1, 2, 8} {
		for _, budget := range []int{0, 32} {
			t.Run(fmt.Sprintf("tasks=%d/budget=%d", nTasks, budget), func(t *testing.T) {
				tasks := ingestTasks(nTasks, 60, 13)
				want := taskOrder(tasks)
				s := New[int, int](Options{Partitions: 4, MemoryBudget: budget})
				writers := s.TaskWriters(min(nTasks, 2))
				for ti := len(tasks) - 1; ti >= 0; ti-- { // commit out of task order
					tw := writers[ti%len(writers)]
					tw.Begin(ti, 0)
					for _, p := range tasks[ti] {
						tw.Emit(p.Key, p.Value)
					}
					if err := tw.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				ref := make([]memRun[int, int], len(s.parts))
				for p := range s.parts {
					if runs := s.parts[p].mem; len(runs) > 0 {
						cp := make([]memRun[int, int], len(runs))
						for i, r := range runs {
							cp[i] = memRun[int, int]{task: r.task, keys: slices.Clone(r.keys), vals: make([][]int, len(r.vals))}
							for j, vs := range r.vals {
								cp[i].vals[j] = slices.Clone(vs)
							}
						}
						ref[p] = appendFold(cp)
					}
				}
				if err := s.Finish(); err != nil {
					t.Fatal(err)
				}
				for p := range s.parts {
					runs := s.parts[p].mem
					if len(runs) == 0 {
						continue
					}
					if len(runs) != 1 {
						t.Fatalf("partition %d: %d runs after Finish, want 1", p, len(runs))
					}
					r := runs[0]
					for i, k := range r.keys {
						if vs := r.vals[i]; len(vs) != cap(vs) {
							t.Errorf("partition %d key %d: len %d cap %d", p, k, len(vs), cap(vs))
						}
						if !slices.Equal(r.vals[i], want[k]) {
							t.Errorf("partition %d key %d: values %v, want %v", p, k, r.vals[i], want[k])
						}
					}
					if !reflect.DeepEqual(r, ref[p]) {
						t.Errorf("partition %d: fold diverges from the appending fold", p)
					}
				}
				if got := allGroups(t, s); !reflect.DeepEqual(got, want) {
					t.Errorf("reads diverge from task order")
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestEmitRejectsNaNKeys: a key that is or holds a NaN fails its task
// at Commit with ErrNaNKey, whatever its shape; -0 and ±Inf keys are
// ordinary.
func TestEmitRejectsNaNKeys(t *testing.T) {
	nan := math.NaN()
	check := func(name string, bad bool, err error) {
		t.Helper()
		if errors.Is(err, ErrNaNKey) != bad {
			t.Errorf("%s: Commit error %v, want ErrNaNKey: %v", name, err, bad)
		}
	}
	type inner struct {
		A [2]float32
		B string
	}
	type outer struct {
		I  int
		In inner
	}
	check("float64", true, emitOneKey(nan))
	check("float32", true, emitOneKey(float32(nan)))
	check("complex", true, emitOneKey(complex(0, nan)))
	check("array element", true, emitOneKey([2]float64{1, nan}))
	check("nested field", true, emitOneKey(outer{In: inner{A: [2]float32{0, float32(nan)}}}))
	check("-0", false, emitOneKey(math.Copysign(0, -1)))
	check("+Inf", false, emitOneKey(outer{In: inner{A: [2]float32{float32(math.Inf(1))}}}))
}

// emitOneKey runs one task that emits the zero key and then k through a
// fresh shuffle over K, returning the first error of the round.
func emitOneKey[K comparable](k K) error {
	s := New[K, int](Options{Partitions: 2})
	tw := s.TaskWriters(1)[0]
	tw.Begin(3, 0)
	var zero K
	tw.Emit(zero, 1)
	tw.Emit(k, 2)
	err := tw.Commit()
	return cmp.Or(err, s.Finish(), s.Close())
}
