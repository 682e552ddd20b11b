package shuffle

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// benchPairs builds nTasks task outputs totalling ~total pairs over
// nKeys distinct string keys, mimicking a map phase's output.
func benchPairs(total, nTasks, nKeys int) [][]Pair[string, int] {
	perTask := total / nTasks
	tasks := make([][]Pair[string, int], nTasks)
	for t := range tasks {
		ps := make([]Pair[string, int], perTask)
		for i := range ps {
			ps[i] = Pair[string, int]{fmt.Sprintf("key-%08d", (t*perTask+i)%nKeys), i}
		}
		tasks[t] = ps
	}
	return tasks
}

// BenchmarkExternalShuffle is the acceptance benchmark for the
// disk-backed spill path: a dataset 8x the total memory budget is
// written by map tasks and fully streamed back, comparing all-in-memory
// execution against the external shuffle, with and without the
// combiner pushed down into sealing. The first three lanes run the 16
// tasks one after another on a single task writer; the streaming lanes
// run 128 finer tasks on 8 concurrent writers. Beyond ns/op it reports
// the memory story: retained-MB is the heap still live after the map
// phase (the in-memory mode retains the whole dataset; the spill mode
// only the index), and live-pairs-peak proves the budget held. The disk story: spilled-MB is bytes written,
// disk-read-MB bytes read back by the streaming merge, and
// stats-read-MB the disk cost of the Stats profile — zero, since the
// counting pass merges the runs' resident indexes in memory. The
// combiner variant must show lower spilled-MB and disk-read-MB than
// the plain spill run: spilled volume tracks the post-combine
// communication cost.
func BenchmarkExternalShuffle(b *testing.B) {
	const (
		parts  = 8
		budget = 1024
		total  = 8 * parts * budget // 8x the total budget
		nTasks = 16
		nKeys  = 4096
	)
	tasks := benchPairs(total, nTasks, nKeys)

	sum := func(_ string, vs []int) []int {
		total := 0
		for _, v := range vs {
			total += v
		}
		return []int{total}
	}

	run := func(b *testing.B, opts Options, combine bool) {
		b.ReportAllocs()
		var retained, spilledMB, indexMB, statsReadMB, diskReadMB float64
		var peak int
		var streamed int64
		for i := 0; i < b.N; i++ {
			s := New[string, int](opts)
			if combine {
				s.SetCombiner(sum)
			}
			if err := runTasks(s, 0, tasks, 1); err != nil {
				b.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			retained = float64(ms.HeapAlloc) / (1 << 20)

			readBefore := s.DiskBytesRead()
			st, err := s.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if opts.MemoryBudget > 0 && st.MaxLivePairs > opts.MemoryBudget {
				b.Fatalf("live pairs %d exceeded budget %d", st.MaxLivePairs, opts.MemoryBudget)
			}
			if opts.SpillDir != "" && st.BytesSpilled == 0 {
				b.Fatal("external mode never spilled")
			}
			peak = st.MaxLivePairs
			spilledMB = float64(st.BytesSpilled) / (1 << 20)
			indexMB = float64(st.IndexBytesSpilled) / (1 << 20)
			statsReadMB = float64(s.DiskBytesRead()-readBefore) / (1 << 20)

			// Stream every group back, counting pairs: the reduce-side
			// k-way merge is part of the cost being measured. With a
			// combiner the streamed pair count is the (smaller)
			// post-combine volume; the per-key sums are checked instead.
			var got, sums int64
			for p := 0; p < s.NumPartitions(); p++ {
				err := eachGroup(s.Partition(p), false, func(_ string, vs []int) error {
					got += int64(len(vs))
					for _, v := range vs {
						sums += int64(v)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !combine && got != total {
				b.Fatalf("streamed %d pairs, want %d", got, total)
			}
			var wantSum int64
			for _, ps := range tasks {
				for _, p := range ps {
					wantSum += int64(p.Value)
				}
			}
			if sums != wantSum {
				b.Fatalf("streamed value sum %d, want %d", sums, wantSum)
			}
			streamed += got
			diskReadMB = float64(s.DiskBytesRead()) / (1 << 20)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(retained, "retained-MB")
		b.ReportMetric(spilledMB, "spilled-MB")
		b.ReportMetric(indexMB, "index-MB")
		b.ReportMetric(statsReadMB, "stats-read-MB")
		b.ReportMetric(diskReadMB, "disk-read-MB")
		b.ReportMetric(float64(peak), "live-pairs-peak")
		// Reduce-side throughput: values streamed back per second of
		// total benchmark time (build + merge + full streaming read).
		// With a combiner, values/s counts the (smaller) post-combine
		// volume, so it is not comparable across lanes; input-pairs/s
		// normalizes by the pairs fed in and is the cross-lane number.
		b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "input-pairs/s")
	}

	b.Run("in-memory", func(b *testing.B) {
		run(b, Options{Partitions: parts}, false)
	})
	// The two spill lanes pin key placement (WithSeed): their gated
	// spilled-MB depends on which keys share a partition — above all in
	// the combiner lane, where seal cancellation hinges on per-partition
	// group sizes — and the default per-process maphash seed moves it
	// ±25% between runs, which no tight benchcmp gate survives. Pinned,
	// the spill metrics are a pure function of the workload. The -seeded
	// suffix marks the measurement-condition change: benchcmp treats the
	// renamed lanes as new benchmarks, so the pinned constants are never
	// diffed against unpinned-era samples. The streaming lanes stay on
	// the default hasher: their values/s floor is a comparison against
	// maphash-placed history, and the seeded FNV fallback costs ~10% of
	// exactly the ingest throughput being gated (their spilled-MB is
	// already seal-point-deterministic, and benchcmp's 10% gate absorbs
	// its small cross-seed spread).
	b.Run("spill-to-disk-seeded", func(b *testing.B) {
		defer WithSeed(42)()
		run(b, Options{Partitions: parts, MemoryBudget: budget, SpillDir: b.TempDir()}, false)
	})
	b.Run("spill-with-combiner-seeded", func(b *testing.B) {
		defer WithSeed(42)()
		run(b, Options{Partitions: parts, MemoryBudget: budget, SpillDir: b.TempDir()}, true)
	})

	// The streaming lanes: the same dataset as 128 finer tasks on 8
	// concurrent task writers sharing the budget, so sort+encode+spill
	// run on the writers while they map, and commits land out of task
	// order. The acceptance gate: whole-round peak resident pairs at or
	// under P*budget (asserted in-benchmark and exported as
	// peak-resident-pairs; compare with the total pair count — residency
	// tracks the budget, not the dataset). untracedSpilled carries the
	// streaming lane's spilled bytes into the streaming-traced lane: seal
	// points are a pure function of the per-task pair streams, so
	// attaching the recorder must not move a single spilled byte.
	var untracedSpilled int64
	streamBench := func(b *testing.B, traced bool) {
		const (
			workers = 8
			nStream = 128
		)
		streamTasks := benchPairs(total, nStream, nKeys)
		b.ReportAllocs()
		var spilledMB, diskReadMB, reclaimedMB, overlapMs float64
		var reduceRanges, rangeSkew float64
		var peakResident int64
		var streamed, wantSpilled int64
		// One recorder for the whole run: the rings are allocated here,
		// once, so the measured rounds see the recording cost alone, not
		// the allocation churn of fresh buffers. Event rings are
		// pointer-free, so the live buffers are GC-noscan. The default
		// capacity holds every event of a default benchtime run; a long
		// -benchtime wraps the rings, which only trips the drop counter.
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder(0)
		}
		for i := -1; i < b.N; i++ {
			if i == 0 {
				// Rounds before this one (i = -1) are untimed warmup: it
				// gets the timed rounds to the steady-state heap directly.
				b.ResetTimer()
			}
			s := New[string, int](Options{
				Partitions: parts, MemoryBudget: budget, SpillDir: b.TempDir(),
				// A small rotation threshold so long rounds exercise
				// spool rotation (compacted sections reclaimed mid-round)
				// under the measured workload.
				SpoolRotateBytes: 64 << 10,
				Recorder:         rec,
			})
			if err := runTasks(s, 0, streamTasks, workers); err != nil {
				b.Fatal(err)
			}

			st, err := s.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.MaxLivePairs > budget/workers {
				b.Fatalf("live pairs %d exceeded the writer threshold %d", st.MaxLivePairs, budget/workers)
			}
			if bound := int64(parts * budget); st.PeakResidentPairs > bound {
				b.Fatalf("peak resident pairs %d exceeded bound %d (= P*budget)", st.PeakResidentPairs, bound)
			}
			if st.BytesSpilled == 0 {
				b.Fatal("streaming mode never spilled")
			}
			// Spilled bytes are deterministic: seal points depend only on
			// the per-task pair streams, never on scheduling, so every
			// iteration of this workload must spill the same bytes.
			if wantSpilled == 0 {
				wantSpilled = st.BytesSpilled
			} else if st.BytesSpilled != wantSpilled {
				b.Fatalf("spilled bytes drifted between iterations: %d then %d", wantSpilled, st.BytesSpilled)
			}
			peakResident = st.PeakResidentPairs
			spilledMB = float64(st.BytesSpilled) / (1 << 20)
			reclaimedMB = float64(st.BytesReclaimed) / (1 << 20)
			overlapMs = float64(s.SealNs()) / 1e6

			// Range-split parallel read-back: plan key ranges per
			// partition from the resident footer indexes and read each
			// range as an independent unit on the worker pool — the
			// production reduce shape (PlanReduceRanges + RangeReader).
			// Each unit's batch merge reuses its value arena, so this is
			// also the allocation-light decode path.
			type rbUnit struct {
				p, rng int // rng < 0: whole-partition fallback
				kr     KeyRange[string]
			}
			var units []rbUnit
			var rangeUnits int
			var maxRangePairs, sumRangePairs int64
			for p := 0; p < s.NumPartitions(); p++ {
				krs := s.Partition(p).PlanReduceRanges(int64(total/parts/4), 4)
				if krs == nil {
					units = append(units, rbUnit{p: p, rng: -1})
					continue
				}
				for r, kr := range krs {
					units = append(units, rbUnit{p: p, rng: r, kr: kr})
					if kr.Pairs > maxRangePairs {
						maxRangePairs = kr.Pairs
					}
					sumRangePairs += kr.Pairs
					rangeUnits++
				}
			}
			// One refcounted reader per split partition: the first unit
			// in opens it, the last one out closes it, so at most
			// `workers` readers hold disk-read slots at any moment.
			type partRd struct {
				mu    sync.Mutex
				rr    *RangeReader[string, int]
				users int
			}
			rds := make([]partRd, parts)
			for ui := range units {
				if units[ui].rng >= 0 {
					rds[units[ui].p].users++
				}
			}
			counts := make([]int64, len(units))
			rerrs := make([]error, len(units))
			unitCh := make(chan int, len(units))
			var rwg sync.WaitGroup
			for w := 0; w < workers; w++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for ui := range unitCh {
						u := units[ui]
						var n int64
						count := func(_ string, vs []int) error {
							n += int64(len(vs))
							return nil
						}
						var err error
						if u.rng < 0 {
							err = eachGroup(s.Partition(u.p), true, count)
						} else {
							rd := &rds[u.p]
							rd.mu.Lock()
							if rd.rr == nil {
								rd.rr, err = s.Partition(u.p).OpenRangeReader()
							}
							rr := rd.rr
							rd.mu.Unlock()
							if err == nil && rr != nil {
								err = rr.ForEachGroupRange(u.kr, true, count)
							}
							rd.mu.Lock()
							rd.users--
							if rd.users == 0 && rd.rr != nil {
								if cerr := rd.rr.Close(); cerr != nil && err == nil {
									err = cerr
								}
								rd.rr = nil
							}
							rd.mu.Unlock()
						}
						counts[ui], rerrs[ui] = n, err
					}
				}()
			}
			for ui := range units {
				unitCh <- ui
			}
			close(unitCh)
			rwg.Wait()
			var got int64
			for ui := range units {
				if rerrs[ui] != nil {
					b.Fatal(rerrs[ui])
				}
				got += counts[ui]
			}
			if got != total {
				b.Fatalf("streamed %d pairs, want %d", got, total)
			}
			reduceRanges = float64(rangeUnits)
			if rangeUnits > 0 {
				rangeSkew = float64(maxRangePairs) / (float64(sumRangePairs) / float64(rangeUnits))
			}
			if i >= 0 { // warmup pairs are outside the timed window
				streamed += got
			}
			diskReadMB = float64(s.DiskBytesRead()) / (1 << 20)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if traced {
			if untracedSpilled != 0 && wantSpilled != untracedSpilled {
				b.Fatalf("recorder changed spill behavior: traced round spilled %d bytes, untraced %d",
					wantSpilled, untracedSpilled)
			}
		} else {
			untracedSpilled = wantSpilled
		}
		b.ReportMetric(float64(peakResident), "peak-resident-pairs")
		b.ReportMetric(spilledMB, "spilled-MB")
		b.ReportMetric(reclaimedMB, "reclaimed-MB")
		b.ReportMetric(diskReadMB, "disk-read-MB")
		b.ReportMetric(overlapMs, "overlap-ms")
		b.ReportMetric(reduceRanges, "reduce-ranges")
		b.ReportMetric(rangeSkew, "range-skew")
		b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "input-pairs/s")
		if traced {
			dropped := rec.Dropped()
			b.ReportMetric(float64(dropped), "dropped-events")
			if dropped == 0 { // wrap loses Ends by design; only then skip
				if err := obs.CheckBalanced(rec.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("streaming", func(b *testing.B) { streamBench(b, false) })
	// The recorder-overhead gate: same workload with every lifecycle
	// event recorded. Compare ns/op against the plain streaming run —
	// the acceptance bound is a regression of at most 5%.
	b.Run("streaming-traced", func(b *testing.B) { streamBench(b, true) })
}

// BenchmarkReduceMergeDecode measures the reduce-side batch decode on
// a one-million-pair spilled workload (16x the total memory budget):
// one value-section read and one type dispatch per group, with stable
// per-group slices ("batch") or the batch contract's reused scratch
// slice ("batch-reduce"). Build and spill are identical untimed setup;
// only the streaming k-way merge is measured.
func BenchmarkReduceMergeDecode(b *testing.B) {
	const (
		parts  = 8
		budget = 1024
		total  = 1 << 20 // 1M pairs
		nTasks = 16
		nKeys  = 4096
	)
	tasks := benchPairs(total, nTasks, nKeys)

	for _, mode := range []string{"batch", "batch-reduce"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var streamed int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New[string, int](Options{Partitions: parts, MemoryBudget: budget, SpillDir: b.TempDir()})
				if err := runTasks(s, 0, tasks, 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var got int64
				count := func(_ string, vs []int) error {
					got += int64(len(vs))
					return nil
				}
				for p := 0; p < s.NumPartitions(); p++ {
					if err := eachGroup(s.Partition(p), mode == "batch-reduce", count); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got != total {
					b.Fatalf("streamed %d pairs, want %d", got, total)
				}
				streamed += got
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
		})
	}
}

// BenchmarkReduceRangeSkew pits whole-partition LPT scheduling against
// index-driven range units on a skewed shuffle: ~70% of all pairs land
// in one partition, so the whole-partition plan's makespan is pinned to
// the hot partition no matter how the workers are loaded, while range
// splitting cuts the hot partition, between distinct keys, into units
// any worker can take. Both plans are balanced with the same LPT scheduler
// (core.BalanceLoads); the bench asserts the range plan's makespan is
// strictly smaller and reports both in pairs-per-busiest-worker. The
// timed section reads every range unit through RangeReader, so values/s
// tracks the split merge's real decode cost on skewed data.
func BenchmarkReduceRangeSkew(b *testing.B) {
	// Pinned placement makes the reported makespans exact constants
	// (the probe below adapts the key population to whatever seed is
	// in force, but the resulting group sizes — and so the planned
	// loads benchcmp compares — would still drift per process).
	defer WithSeed(42)()
	const (
		parts   = 4
		workers = 4
		budget  = 1024
		total   = 1 << 15
	)
	// Probe the partition hash for a key population that pins ~70% of
	// the pairs to partition 0.
	probe := New[string, int](Options{Partitions: parts})
	var hotKeys, coldKeys []string
	for i := 0; len(hotKeys) < 64 || len(coldKeys) < 192; i++ {
		k := fmt.Sprintf("skew-%06d", i)
		if probe.PartitionOf(k) == 0 {
			if len(hotKeys) < 64 {
				hotKeys = append(hotKeys, k)
			}
		} else if len(coldKeys) < 192 {
			coldKeys = append(coldKeys, k)
		}
	}
	if err := probe.Close(); err != nil {
		b.Fatal(err)
	}
	pairs := make([]Pair[string, int], total)
	for i := range pairs {
		if i%10 < 7 {
			pairs[i] = Pair[string, int]{hotKeys[i%len(hotKeys)], i}
		} else {
			pairs[i] = Pair[string, int]{coldKeys[i%len(coldKeys)], i}
		}
	}

	b.ReportAllocs()
	var streamed int64
	var lptMakespan, rangeMakespan int64
	var rangeUnits int
	var rangeSkew float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New[string, int](Options{Partitions: parts, MemoryBudget: budget, SpillDir: b.TempDir()})
		if err := runTasks(s, 0, [][]Pair[string, int]{pairs}, 1); err != nil {
			b.Fatal(err)
		}

		// Whole-partition plan: LPT over per-partition pair counts.
		partLoads := make([]int, parts)
		for p := 0; p < parts; p++ {
			partLoads[p] = int(s.Partition(p).Pairs())
		}
		_, lptMakespan = core.BalanceLoads(partLoads, workers)

		// Range plan: the same scheduler over index-planned range units.
		type rbUnit struct {
			p, rng int // rng < 0: whole-partition unit
			kr     KeyRange[string]
		}
		var units []rbUnit
		var unitLoads []int
		var maxRangePairs, sumRangePairs int64
		rangeUnits = 0
		for p := 0; p < parts; p++ {
			krs := s.Partition(p).PlanReduceRanges(int64(total/(workers*2)), workers)
			if krs == nil {
				units = append(units, rbUnit{p: p, rng: -1})
				unitLoads = append(unitLoads, partLoads[p])
				continue
			}
			for r, kr := range krs {
				units = append(units, rbUnit{p: p, rng: r, kr: kr})
				unitLoads = append(unitLoads, int(kr.Pairs))
				if kr.Pairs > maxRangePairs {
					maxRangePairs = kr.Pairs
				}
				sumRangePairs += kr.Pairs
				rangeUnits++
			}
		}
		_, rangeMakespan = core.BalanceLoads(unitLoads, workers)
		if rangeMakespan >= lptMakespan {
			b.Fatalf("range plan makespan %d did not beat whole-partition LPT makespan %d",
				rangeMakespan, lptMakespan)
		}
		if rangeUnits > 0 {
			rangeSkew = float64(maxRangePairs) / (float64(sumRangePairs) / float64(rangeUnits))
		}

		readers := make([]*RangeReader[string, int], parts)
		b.StartTimer()
		var got int64
		count := func(_ string, vs []int) error {
			got += int64(len(vs))
			return nil
		}
		for _, u := range units {
			var err error
			if u.rng < 0 {
				err = eachGroup(s.Partition(u.p), true, count)
			} else {
				if readers[u.p] == nil {
					if readers[u.p], err = s.Partition(u.p).OpenRangeReader(); err != nil {
						b.Fatal(err)
					}
				}
				err = readers[u.p].ForEachGroupRange(u.kr, true, count)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, rr := range readers {
			if rr != nil {
				if err := rr.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if got != total {
			b.Fatalf("read %d pairs, want %d", got, total)
		}
		streamed += got
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(lptMakespan), "lpt-makespan-pairs")
	b.ReportMetric(float64(rangeMakespan), "range-makespan-pairs")
	b.ReportMetric(float64(rangeUnits), "reduce-ranges")
	b.ReportMetric(rangeSkew, "range-skew")
	b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
}

// BenchmarkMergeScaling shows map-side ingest throughput (one task
// writer, in-memory runs) as partitions scale from 1 (the seed's
// effective layout) to 4x cores.
func BenchmarkMergeScaling(b *testing.B) {
	const (
		total  = 1 << 19
		nTasks = 32
		nKeys  = 20000
	)
	tasks := benchPairs(total, nTasks, nKeys)
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0), DefaultPartitions()} {
		b.Run(fmt.Sprintf("P=%d", ceilPow2(p)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New[string, int](Options{Partitions: p})
				if err := runTasks(s, 0, tasks, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmitParallel measures the emit path under concurrency:
// GOMAXPROCS task writers emit int keys into one in-memory shuffle at
// once, one task each, released together. ns/emit is the wall time of
// the emit phase per pair across all writers; the commits and the
// shuffle's set-up are outside it. Per-emit work shared between writers
// (a counter every writer updates, say) shows up here as contention.
func BenchmarkEmitParallel(b *testing.B) {
	const (
		perWriter = 1 << 16
		keys      = 1 << 10
	)
	writers := runtime.GOMAXPROCS(0)
	var emitNs int64
	for i := 0; i < b.N; i++ {
		s := New[int, int](Options{})
		tws := s.TaskWriters(writers)
		start, commit := make(chan struct{}), make(chan struct{})
		var emitted, done sync.WaitGroup
		for w, tw := range tws {
			emitted.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				<-start
				tw.Begin(w, 0)
				for j := 0; j < perWriter; j++ {
					tw.Emit(w*keys+j%keys, j)
				}
				emitted.Done()
				<-commit
				if err := tw.Commit(); err != nil {
					b.Error(err)
				}
			}()
		}
		t0 := time.Now()
		close(start)
		emitted.Wait()
		emitNs += time.Since(t0).Nanoseconds()
		close(commit)
		done.Wait()
		if err := s.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(emitNs)/float64(b.N*writers*perWriter), "ns/emit")
}
