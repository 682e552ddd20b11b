package shuffle

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSpillDatasetLargerThanBudget is the acceptance test for the
// external shuffle: a dataset more than 4x the total configured memory
// budget must complete with correct grouped output, nonzero bytes
// spilled, and live buffered pairs never exceeding the budget.
func TestSpillDatasetLargerThanBudget(t *testing.T) {
	const (
		parts  = 4
		budget = 512         // per-partition pair budget
		total  = 4 * 4 * 512 // 4x the total budget of parts*budget
		keys   = 97          // co-prime with total: uneven groups
	)
	dir := t.TempDir()
	s := New[int, int](Options{Partitions: parts, MemoryBudget: budget, SpillDir: dir})
	defer s.Close()

	const tasks = 8
	bufs := make([][]Pair[int, int], tasks)
	want := make(map[int][]int) // reference grouping in shuffle value order
	for task := 0; task < tasks; task++ {
		for i := task; i < total; i += tasks {
			bufs[task] = append(bufs[task], Pair[int, int]{i % keys, i})
			want[i%keys] = append(want[i%keys], i)
		}
	}
	writeTasks(t, s, 0, bufs, 4)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != total || st.Keys != keys {
		t.Fatalf("stats = pairs %d keys %d, want %d and %d", st.Pairs, st.Keys, total, keys)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("BytesSpilled = 0: dataset 4x the budget never touched disk")
	}
	if st.SpillEvents == 0 || st.SpilledPairs == 0 {
		t.Fatalf("spill pressure missing: %+v", st)
	}
	if st.MaxLivePairs > budget {
		t.Fatalf("MaxLivePairs = %d exceeds the %d-pair budget", st.MaxLivePairs, budget)
	}
	if st.RunsMerged == 0 {
		t.Fatal("RunsMerged = 0, want multi-run merges on every spilled partition")
	}

	// Run files actually exist before Close.
	files, err := filepath.Glob(filepath.Join(dir, "mr-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no spill files on disk")
	}

	// The streamed groups must exactly reproduce the reference
	// grouping, keys sorted, values in emission order.
	got := make(map[int][]int)
	for p := 0; p < s.NumPartitions(); p++ {
		prev, prevSet := 0, false
		err := eachGroup(s.Partition(p), false, func(k int, vs []int) error {
			if prevSet && k <= prev {
				t.Fatalf("partition %d keys out of order: %d after %d", p, k, prev)
			}
			prev, prevSet = k, true
			if _, dup := got[k]; dup {
				t.Fatalf("key %d in more than one partition or emitted twice", k)
			}
			got[k] = vs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values differ from reference")
	}

	// Close removes the run files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "mr-*.run"))
	if len(files) != 0 {
		t.Fatalf("%d spill files remain after Close", len(files))
	}
}

// TestSpillMatchesInMemorySealing: the same workload with SpillDir set
// and unset must produce identical groups and identical logical stats.
func TestSpillMatchesInMemorySealing(t *testing.T) {
	build := func(spillDir string) *Shuffle[string, int] {
		s := New[string, int](Options{Partitions: 4, MemoryBudget: 16, SpillDir: spillDir})
		var pairs []Pair[string, int]
		for i := 0; i < 500; i++ {
			pairs = append(pairs, Pair[string, int]{fmt.Sprintf("k%02d", i%23), i})
		}
		writeTasks(t, s, 0, roundRobin(3, pairs), 1)
		return s
	}
	mem := build("")
	disk := build(t.TempDir())
	defer disk.Close()

	memStats, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	diskStats, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if memStats.Pairs != diskStats.Pairs || memStats.Keys != diskStats.Keys ||
		memStats.MaxGroup != diskStats.MaxGroup ||
		memStats.SpillEvents != diskStats.SpillEvents ||
		memStats.SpilledPairs != diskStats.SpilledPairs {
		t.Fatalf("logical stats diverge:\nmem  %+v\ndisk %+v", memStats, diskStats)
	}
	if memStats.BytesSpilled != 0 {
		t.Errorf("in-memory sealing reported %d bytes spilled", memStats.BytesSpilled)
	}
	if diskStats.BytesSpilled == 0 {
		t.Error("disk sealing reported zero bytes spilled")
	}

	for p := 0; p < mem.NumPartitions(); p++ {
		memPart, diskPart := mem.Partition(p), disk.Partition(p)
		type group struct {
			k  string
			vs []int
		}
		var memGroups, diskGroups []group
		eachGroup(memPart, false, func(k string, vs []int) error {
			memGroups = append(memGroups, group{k, vs})
			return nil
		})
		if err := eachGroup(diskPart, false, func(k string, vs []int) error {
			diskGroups = append(diskGroups, group{k, vs})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memGroups, diskGroups) {
			t.Fatalf("partition %d groups diverge between mem and disk sealing", p)
		}
	}
}

// TestSpillStructKeysViaGob: non-native key and value types round-trip
// through the gob fallback of the run-file codec.
func TestSpillStructKeysViaGob(t *testing.T) {
	type cell struct{ I, J int }
	type payload struct{ X float64 }
	s := New[cell, payload](Options{Partitions: 2, MemoryBudget: 4, SpillDir: t.TempDir()})
	defer s.Close()
	var pairs []Pair[cell, payload]
	want := make(map[cell][]payload)
	for i := 0; i < 40; i++ {
		k := cell{i % 5, i % 3}
		v := payload{float64(i) / 2}
		pairs = append(pairs, Pair[cell, payload]{k, v})
		want[k] = append(want[k], v)
	}
	writeTask(t, s, pairs...)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("struct-key workload never spilled")
	}
	if got := allGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip diverged: got %d keys, want %d", len(got), len(want))
	}
}

// TestCompactionBoundsRunFanIn: a workload sealing far more than
// maxDiskRunsPerPartition runs must keep each partition's disk-run
// count (and therefore the merge's width) bounded via compaction, with
// grouping and value order intact.
func TestCompactionBoundsRunFanIn(t *testing.T) {
	s := New[int, int](Options{
		Partitions: 2, MemoryBudget: 2, SpillDir: t.TempDir(),
		CompactionConcurrency: -1, // compact inline at commit: exact tiers
	})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	const n = 4 * maxDiskRunsPerPartition // 256 tasks sealing one 2-pair run each
	var pairs []Pair[int, int]
	want := make(map[int][]int)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair[int, int]{i % 11, i})
		want[i%11] = append(want[i%11], i)
	}
	tasks := make([][]Pair[int, int], n/2)
	for i := range tasks {
		tasks[i] = pairs[2*i : 2*i+2]
	}
	writeTasks(t, s, 0, tasks, 1)
	// 256 runs of 2 pairs: commit 128 compacts everything into a
	// 256-pair tier-1 run; commits 129-255 accumulate 127 small runs and
	// compact them into a second tier-1 run WITHOUT rewriting the first
	// (tiered policy); commit 256 remains small.
	disk := s.parts[0].disk
	if len(disk) >= maxDiskRunFanIn {
		t.Fatalf("partition holds %d disk runs; compaction should cap below %d", len(disk), maxDiskRunFanIn)
	}
	if len(disk) != 3 || disk[0].pairs != 256 || disk[1].pairs != 254 || disk[2].pairs != 2 {
		sizes := make([]int64, len(disk))
		for i, dr := range disk {
			sizes[i] = dr.pairs
		}
		t.Fatalf("disk run sizes = %v, want [256 254 2] (earlier tiers must not be rewritten)", sizes)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillEvents != n/2 {
		t.Errorf("SpillEvents = %d, want %d (compaction must not change seal accounting)", st.SpillEvents, n/2)
	}
	if st.Keys != 11 || st.Pairs != n {
		t.Errorf("stats = keys %d pairs %d, want 11 and %d", st.Keys, st.Pairs, n)
	}
	if got := allGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("compacted grouping diverges from reference (value order must survive compaction)")
	}
}

// TestSpillValueOrderAcrossRuns: a key present in several spilled runs
// must see its values concatenated in seal order.
func TestSpillValueOrderAcrossRuns(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MemoryBudget: 10, SpillDir: t.TempDir()})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	const n = 95
	var pairs []Pair[int, int]
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair[int, int]{i % 7, i})
	}
	writeTask(t, s, pairs...)
	groups := allGroups(t, s)
	part := s.Partition(0)
	if got := part.NumKeys(); got != 7 {
		t.Fatalf("NumKeys = %d, want 7", got)
	}
	for _, k := range part.SortedKeys() {
		var want []int
		for i := k; i < n; i += 7 {
			want = append(want, i)
		}
		if got := groups[k]; !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d values = %v, want %v", k, got, want)
		}
	}
}

// TestMergeCollidingFormattedKeys: distinct struct keys whose
// fmt.Sprint forms collide. The compiled key order compares their
// fields one at a time, so they no longer tie; the k-way merge must
// emit exactly one group per actual key with all its values, in memory
// and spilled.
func TestMergeCollidingFormattedKeys(t *testing.T) {
	type k2 struct{ A, B string }
	// All four format as "{a b c}"; two more are unambiguous.
	colliders := []k2{{"a b", "c"}, {"a", "b c"}}
	for _, spillDir := range []string{"", t.TempDir()} {
		s := New[k2, int](Options{Partitions: 2, MemoryBudget: 3, SpillDir: spillDir})
		s.SetPartitioner(func(k2) int { return 0 })
		var pairs []Pair[k2, int]
		want := make(map[k2][]int)
		for i := 0; i < 30; i++ {
			k := colliders[i%2]
			if i%5 == 0 {
				k = k2{"z", fmt.Sprint(i % 3)}
			}
			pairs = append(pairs, Pair[k2, int]{k, i})
			want[k] = append(want[k], i)
		}
		writeTask(t, s, pairs...)
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillEvents == 0 {
			t.Fatal("workload never sealed; test is vacuous")
		}
		if st.Keys != int64(len(want)) {
			t.Errorf("spillDir=%q: Stats.Keys = %d, want %d", spillDir, st.Keys, len(want))
		}
		got := make(map[k2][]int)
		if err := eachGroup(s.Partition(0), false, func(k k2, vs []int) error {
			if _, dup := got[k]; dup {
				t.Fatalf("spillDir=%q: key %+v emitted as two groups", spillDir, k)
			}
			got[k] = vs
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spillDir=%q: grouped values diverge\ngot  %v\nwant %v", spillDir, got, want)
		}
		s.Close()
	}
}

// TestReadAfterCloseFails: once Close has deleted the spill files,
// streaming a partition that had spilled must error, not silently
// return an empty remainder.
func TestReadAfterCloseFails(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MemoryBudget: 4, SpillDir: t.TempDir()})
	s.SetPartitioner(func(int) int { return 0 })
	var pairs []Pair[int, int]
	for i := 0; i < 20; i++ {
		pairs = append(pairs, Pair[int, int]{i % 3, i})
	}
	writeTask(t, s, pairs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eachGroup(s.Partition(0), false, func(int, []int) error { return nil }); err == nil {
		t.Error("reading after Close returned nil error on a spilled partition")
	}
	if _, err := s.Stats(); err == nil {
		t.Error("Stats after Close returned nil error on a spilled shuffle")
	}
	// The never-spilled partition stays readable.
	if err := eachGroup(s.Partition(1), false, func(int, []int) error { return nil }); err != nil {
		t.Errorf("unspilled partition unreadable after Close: %v", err)
	}
}

// TestNativeCompareAgreesWithSortKeys pins the invariant the k-way
// merge rests on: for every orderable key type — the built-in number
// kinds and strings, and the compiled order's named scalars, structs
// and arrays — CheckKeyType admits the type and nativeCompare orders
// exactly as SortKeys sorts; the types holding a pointer, interface or
// channel are refused by an error that names them.
func TestNativeCompareAgreesWithSortKeys(t *testing.T) {
	agree(t, "int", []int{5, -1, 3, 0})
	agree(t, "int8", []int8{5, -1, 3})
	agree(t, "int16", []int16{5, -1, 3})
	agree(t, "int32", []int32{5, -1, 3})
	agree(t, "int64", []int64{5, -1, 3})
	agree(t, "uint", []uint{5, 1, 3})
	agree(t, "uint8", []uint8{5, 1, 3})
	agree(t, "uint16", []uint16{5, 1, 3})
	agree(t, "uint32", []uint32{5, 1, 3})
	agree(t, "uint64", []uint64{5, 1, 3})
	agree(t, "uintptr", []uintptr{5, 1, 3})
	agree(t, "float32", []float32{2.5, -1, 0})
	agree(t, "float64", []float64{2.5, -1, 0})
	agree(t, "string", []string{"b", "a", "c"})

	type cell struct{ I, J int }
	type nodeID int64
	type mixed struct {
		Name string
		On   bool
		At   [2]int8
	}
	agree(t, "struct", []cell{{10, 0}, {9, 5}, {9, 0}, {-1, 7}})
	agree(t, "array", [][3]uint16{{1, 2, 3}, {1, 0, 9}, {0, 9, 9}})
	agree(t, "named int", []nodeID{12, -3, 100, 9})
	agree(t, "bool", []bool{true, false})
	agree(t, "complex", []complex128{1 + 2i, 1 - 2i, -1})
	agree(t, "mixed struct", []mixed{{"b", false, [2]int8{}}, {"a", true, [2]int8{1, -1}}, {"a", true, [2]int8{1, -2}}, {"a", false, [2]int8{3}}})

	type withPtr struct{ P *int }
	type withAny struct{ A any }
	type withChan struct{ C chan int }
	refused(t, CheckKeyType[withPtr](), "withPtr")
	refused(t, CheckKeyType[withAny](), "withAny")
	refused(t, CheckKeyType[withChan](), "withChan")
	refused(t, CheckKeyType[any](), "interface {}")
}

// agree sorts a copy of vals with SortKeys and verifies that K is
// admitted and that nativeCompare calls the result strictly ascending.
func agree[K comparable](t *testing.T, name string, vals []K) {
	t.Helper()
	if err := CheckKeyType[K](); err != nil {
		t.Fatalf("%s: orderable type refused: %v", name, err)
	}
	compare := nativeCompare[K]()
	sorted := append([]K(nil), vals...)
	SortKeys(sorted)
	for i := 1; i < len(sorted); i++ {
		if compare(sorted[i-1], sorted[i]) >= 0 || compare(sorted[i], sorted[i-1]) <= 0 {
			t.Errorf("%s: nativeCompare order disagrees with SortKeys", name)
			return
		}
	}
}

// refused checks that a CheckKeyType error exists and names the type.
func refused(t *testing.T, err error, typeName string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), typeName) {
		t.Errorf("CheckKeyType = %v, want an error naming %s", err, typeName)
	}
}

// TestSpillRejectsUnexportedKeyFields: a key type with an unexported
// field has a compiled order, but gob drops the field, so keys that
// differ only there would decode from disk as one key and silently
// merge their groups — the first seal must fail loudly instead.
// In-memory sealing (no SpillDir) keeps working: it groups by == in
// maps.
func TestSpillRejectsUnexportedKeyFields(t *testing.T) {
	type uk struct {
		A int
		b int
	}
	var pairs []Pair[uk, int]
	for i := 0; i < 8; i++ {
		pairs = append(pairs, Pair[uk, int]{uk{1, i % 2}, i})
	}
	s := New[uk, int](Options{Partitions: 2, MemoryBudget: 2, SpillDir: t.TempDir()})
	s.SetPartitioner(func(uk) int { return 0 })
	err := runTasks(s, 0, [][]Pair[uk, int]{pairs}, 1)
	if err == nil || !strings.Contains(err.Error(), "cannot spill: key type") {
		t.Fatalf("Commit err = %v, want a key-type rejection", err)
	}

	mem := New[uk, int](Options{Partitions: 2, MemoryBudget: 2})
	mem.SetPartitioner(func(uk) int { return 0 })
	if err := runTasks(mem, 0, [][]Pair[uk, int]{pairs}, 1); err != nil {
		t.Fatalf("in-memory sealing rejected unexported key fields: %v", err)
	}
	if got := mem.Partition(0).NumKeys(); got != 2 {
		t.Errorf("in-memory grouping by == broke: %d keys, want 2", got)
	}
}

// TestSpillRejectsLossyValueTypes: gob silently zeroes unexported
// struct fields, so spilled values would diverge from the in-memory
// run — the first seal must fail loudly. Pointer values are fine
// (fidelity, unlike key identity, survives fresh allocations).
func TestSpillRejectsLossyValueTypes(t *testing.T) {
	type lossy struct {
		Pub  int
		priv int //nolint:unused
	}
	s := New[int, lossy](Options{Partitions: 2, MemoryBudget: 2, SpillDir: t.TempDir()})
	var lossyPairs []Pair[int, lossy]
	for i := 0; i < 8; i++ {
		lossyPairs = append(lossyPairs, Pair[int, lossy]{i % 2, lossy{i, i}})
	}
	err := runTasks(s, 0, [][]Pair[int, lossy]{lossyPairs}, 1)
	if err == nil || !strings.Contains(err.Error(), "cannot spill: value type") {
		t.Fatalf("Commit err = %v, want a value-type rejection", err)
	}

	// Pointer-valued payloads round-trip as faithful copies.
	sp := New[int, *int](Options{Partitions: 2, MemoryBudget: 2, SpillDir: t.TempDir()})
	defer sp.Close()
	var ptrPairs []Pair[int, *int]
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i * 10
		ptrPairs = append(ptrPairs, Pair[int, *int]{i % 2, &vals[i]})
	}
	if err := runTasks(sp, 0, [][]Pair[int, *int]{ptrPairs}, 1); err != nil {
		t.Fatalf("pointer values should spill: %v", err)
	}
	sum := 0
	for p := 0; p < sp.NumPartitions(); p++ {
		if err := eachGroup(sp.Partition(p), false, func(_ int, vs []*int) error {
			for _, v := range vs {
				sum += *v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sum != 280 {
		t.Errorf("pointer values lost data across spill: sum = %d, want 280", sum)
	}
}

// TestSpillFailureSurfaces: an unusable spill directory must fail the
// task's commit with a useful error, not corrupt the shuffle silently.
func TestSpillFailureSurfaces(t *testing.T) {
	s := New[int, int](Options{
		Partitions: 2, MemoryBudget: 2,
		SpillDir: filepath.Join(t.TempDir(), "does", "not", "exist"),
	})
	var pairs []Pair[int, int]
	for i := 0; i < 16; i++ {
		pairs = append(pairs, Pair[int, int]{i, i})
	}
	err := runTasks(s, 0, [][]Pair[int, int]{pairs}, 1)
	if err == nil {
		t.Fatal("commit succeeded with a nonexistent spill directory")
	}
	if !os.IsNotExist(unwrapAll(err)) {
		t.Fatalf("err = %v, want a not-exist I/O error", err)
	}
}

func unwrapAll(err error) error {
	for {
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}

// TestWithSeedDeterministicPlacement: under a pinned seed, placement —
// and everything derived from it — is identical across hashers and
// matches a freshly computed expectation.
func TestWithSeedDeterministicPlacement(t *testing.T) {
	restore := WithSeed(42)
	defer restore()

	h1 := NewHasher[string]()
	h2 := NewHasher[string]()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if h1.Hash(k) != h2.Hash(k) {
			t.Fatalf("pinned hashers disagree on %q", k)
		}
	}

	// Different seeds give different placements (else the hook is a
	// constant function).
	restore2 := WithSeed(43)
	h3 := NewHasher[string]()
	restore2()
	diff := 0
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if h1.Hash(k) != h3.Hash(k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 hash identically")
	}

	// The pinned hash still spreads keys.
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[h1.Hash(fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct pinned hashes over 1000 keys", len(seen))
	}

	// Restoring un-pins: new hashers return to the process seed.
	restore()
	h4 := NewHasher[string]()
	if h4.pinned {
		t.Fatal("restore did not un-pin the hasher mode")
	}
}

// TestMergeRepeatedKeyInRun: the k-way merge pops every cursor at the
// minimum key in run order, and pops a cursor again when its run
// repeats a key, so the key still surfaces as one group whose values
// concatenate in run order — without writing into any run's slices.
func TestMergeRepeatedKeyInRun(t *testing.T) {
	// Spare capacity behind the first group: extending it in place
	// would write into the run.
	first := make([]int, 1, 4)
	first[0] = 10
	cursors := []*groupCursor[int, int]{
		{runIdx: 0, memKeys: []int{1, 1, 2}, memVals: [][]int{first, {11}, {20}}},
		{runIdx: 1, memKeys: []int{0, 1}, memVals: [][]int{{0}, {12}}},
	}
	type group struct {
		k, count int
		vs       []int
	}
	var got []group
	err := mergeGroupCursors(cursors, nativeCompare[int](), true, false, func(k, count int, vs []int) error {
		got = append(got, group{k, count, vs})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []group{{0, 1, []int{0}}, {1, 3, []int{10, 11, 12}}, {2, 1, []int{20}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged groups %v, want %v", got, want)
	}
	if !reflect.DeepEqual(first[:4], []int{10, 0, 0, 0}) {
		t.Fatalf("merge wrote into a run's value slice: %v", first[:4])
	}
}
