package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bitstr"
	"repro/internal/graphs"
	"repro/internal/hamming"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/triangle"
)

// Every workload fixes its shuffle partition count, so the spill ratio
// and the reduce schedule do not change with the host's CPU count.
const (
	partitions = 8
	// triPartitions is above the 56 reducers, so LPT schedules nearly
	// single reducers: a coarser grain would make each process's random
	// key placement decide the reduce makespan.
	triPartitions = 64
)

// jobEnv is what the harness hands one job.
type jobEnv struct {
	spillDir string        // set when the workload spills
	rec      *obs.Recorder // nil on untraced jobs
	clock    *userClock    // nil on untraced jobs
}

// instance is a workload after set-up: seeded inputs, the oracle its
// outputs are checked against, and the job that runs on them.
type instance interface {
	// run executes and measures one job, then checks its outputs and
	// metrics against the oracle.
	run(env jobEnv) (jobSample, error)
}

// workload names one benchmark workload and how to set it up.
type workload struct {
	name     string
	spills   bool // jobs need a spill directory
	procMode bool // jobs run across worker processes
	// prepare generates the seeded inputs and the serial oracle. smoke
	// selects the seconds-long size the tests run.
	prepare func(seed int64, smoke bool) (instance, string, error)
}

var workloads = []workload{
	// Hamming-1 Splitting under a spill budget: the user code is cheap,
	// so ingest, swap, spill, compaction and the k-way merge do the work.
	{
		name:    "hamming-spill",
		spills:  true,
		prepare: prepareHamming,
	},
	// The triangle partition schema in memory: user reduce and the LPT
	// schedule of a few large reducers dominate; the disk layers are
	// bypassed.
	{
		name:    "triangles-mem",
		prepare: prepareTriangles,
	},
	// Zipf word count with a combiner across worker processes: spawn,
	// RPC, leases, spool sections and their merge; the in-process swap
	// path is bypassed.
	{
		name:     "wordcount-proc",
		procMode: true,
		prepare:  prepareWordcount,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// expect returns an error naming the quantity when got differs from want.
func expect(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// ---- hamming-spill ------------------------------------------------------

// hammingSpill finds every distance-1 pair among all b-bit strings with
// the Splitting schema: r = c, q = 2^(b/c). The pairs emitted exceed the
// shuffle's total memory budget many times over, so most of them spill.
type hammingSpill struct {
	schema hamming.SplittingSchema
	budget int
	inputs []uint64 // every b-bit string, in seeded order
	digest uint64   // order-independent digest of all distance-1 pairs
}

// splitKey is one Splitting reducer: the removed segment and the bits
// that remain.
type splitKey struct {
	Group int
	Rest  uint64
}

func prepareHamming(seed int64, smoke bool) (instance, string, error) {
	b, c, budget := 16, 4, 256
	if smoke {
		b, budget = 12, 64
	}
	s, err := hamming.NewSplittingSchema(b, c)
	if err != nil {
		return nil, "", err
	}
	n := bitstr.Universe(b)
	h := &hammingSpill{schema: s, budget: budget, inputs: make([]uint64, n)}
	for i, x := range rand.New(rand.NewSource(seed)).Perm(n) {
		h.inputs[i] = uint64(x)
	}
	for x := uint64(0); x < uint64(n); x++ {
		for i := 0; i < b; i++ {
			if y := bitstr.Flip(x, i); y > x {
				h.digest += pairDigest(x, y)
			}
		}
	}
	return h, fmt.Sprintf("b=%d c=%d budget=%d partitions=%d", b, c, budget, partitions), nil
}

// pairSummary is one reducer's output: how many distance-1 pairs it
// found and the sum of their digests.
type pairSummary struct {
	pairs  int64
	digest uint64
}

// pairDigest hashes one output pair (splitmix64 finalizer); summing it
// over a pair set gives a digest independent of output order.
func pairDigest(x, y uint64) uint64 {
	z := x*0x9e3779b97f4a7c15 ^ y
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (h *hammingSpill) run(env jobEnv) (jobSample, error) {
	b, c := h.schema.B, h.schema.C
	job := &mr.Job[uint64, splitKey, uint64, pairSummary]{
		Name: "hamming-spill",
		Map: timedMap(env.clock, func(x uint64, emit func(splitKey, uint64)) {
			for g := 0; g < c; g++ {
				emit(splitKey{g, bitstr.RemoveSegment(x, g, c, b)}, x)
			}
		}),
		Reduce: timedReduce(env.clock, func(_ splitKey, xs []uint64, emit func(pairSummary)) {
			slices.Sort(xs)
			var sum pairSummary
			for i := range xs {
				for j := i + 1; j < len(xs); j++ {
					if bitstr.Distance(xs[i], xs[j]) == 1 {
						sum.pairs++
						sum.digest += pairDigest(xs[i], xs[j])
					}
				}
			}
			emit(sum)
		}),
		Config: mr.Config{
			Workers:      workers(),
			Partitions:   partitions,
			MemoryBudget: h.budget,
			SpillDir:     env.spillDir,
			Recorder:     env.rec,
		},
	}
	outs, s, err := measure(func() ([]pairSummary, mr.Metrics, error) { return job.Run(h.inputs) })
	if err != nil {
		return s, err
	}
	return s, h.check(outs, s.met)
}

func (h *hammingSpill) check(outs []pairSummary, met mr.Metrics) error {
	b, c := h.schema.B, h.schema.C
	n := int64(len(h.inputs))
	var found int64
	var digest uint64
	for _, s := range outs {
		found += s.pairs
		digest += s.digest
	}
	errs := []error{
		expect("pairs emitted (r = c)", met.PairsEmitted, int64(c)*n),
		expect("max reducer input (q = 2^(b/c))", met.MaxReducerInput, int64(h.schema.ReducerSize())),
		expect("reducers", met.Reducers, int64(h.schema.NumReducers())),
		expect("output pairs (b*2^(b-1))", found, int64(b)*n/2),
	}
	if digest != h.digest {
		errs = append(errs, fmt.Errorf("output digest %#x, want %#x", digest, h.digest))
	}
	if min := int64(8 * len(met.Partitions) * h.budget); met.PairsEmitted < min || met.BytesSpilled == 0 {
		errs = append(errs, fmt.Errorf("did not spill as designed: %d pairs emitted (want >= %d), %d bytes spilled",
			met.PairsEmitted, min, met.BytesSpilled))
	}
	return errors.Join(errs...)
}

// ---- triangles-mem ------------------------------------------------------

// trianglesMem counts the triangles of a seeded G(n, m) with the
// bucket-triple partition schema, in memory: r = k, one reducer per
// sorted bucket triple.
type trianglesMem struct {
	schema    *triangle.PartitionSchema
	g         *graphs.Graph
	triangles int64 // serial count
	maxQ      int64 // serial largest reducer input
}

func prepareTriangles(seed int64, smoke bool) (instance, string, error) {
	n, m, k := 2000, 200_000, 6
	if smoke {
		n, m, k = 200, 4000, 4
	}
	s, err := triangle.NewPartitionSchema(n, k)
	if err != nil {
		return nil, "", err
	}
	t := &trianglesMem{schema: s, g: graphs.GNM(n, m, rand.New(rand.NewSource(seed)))}
	t.triangles = t.g.TriangleCount()
	load := make(map[int]int64)
	for _, e := range t.g.Edges {
		for w := 0; w < k; w++ {
			load[t.cell(e.U, e.V, w)]++
		}
	}
	for _, q := range load {
		t.maxQ = max(t.maxQ, q)
	}
	return t, fmt.Sprintf("n=%d m=%d k=%d partitions=%d", n, m, k, triPartitions), nil
}

// cell is the reducer of the sorted bucket triple of nodes u and v and
// bucket w.
func (t *trianglesMem) cell(u, v, w int) int {
	a, b := t.schema.Bucket(u), t.schema.Bucket(v)
	return tripleKey(t.schema.K, a, b, w)
}

// tripleKey encodes the sorted triple of buckets a, b, c.
func tripleKey(k, a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return (a*k+b)*k + c
}

func (t *trianglesMem) run(env jobEnv) (jobSample, error) {
	s := t.schema
	job := &mr.Job[graphs.Edge, int, graphs.Edge, int64]{
		Name: "triangles-mem",
		// Each w names a different triple holding both endpoints'
		// buckets, so an edge reaches exactly k reducers.
		Map: timedMap(env.clock, func(e graphs.Edge, emit func(int, graphs.Edge)) {
			for w := 0; w < s.K; w++ {
				emit(t.cell(e.U, e.V, w), e)
			}
		}),
		// A reducer counts only the triangles whose bucket triple is its
		// own, so each triangle is counted once.
		Reduce: timedReduce(env.clock, func(cell int, edges []graphs.Edge, emit func(int64)) {
			var count int64
			for _, tr := range graphs.New(s.N, edges).Triangles() {
				if tripleKey(s.K, s.Bucket(tr[0]), s.Bucket(tr[1]), s.Bucket(tr[2])) == cell {
					count++
				}
			}
			emit(count)
		}),
		Config: mr.Config{Workers: workers(), Partitions: triPartitions, Recorder: env.rec},
	}
	outs, sample, err := measure(func() ([]int64, mr.Metrics, error) { return job.Run(t.g.Edges) })
	if err != nil {
		return sample, err
	}
	var total int64
	for _, c := range outs {
		total += c
	}
	met := sample.met
	return sample, errors.Join(
		expect("triangles", total, t.triangles),
		expect("pairs emitted (r = k)", met.PairsEmitted, int64(s.K*t.g.M())),
		expect("reducers", met.Reducers, int64(s.NumReducers())),
		expect("max reducer input", met.MaxReducerInput, t.maxQ),
	)
}

// ---- wordcount-proc -----------------------------------------------------

// wordcountProc counts the words of a seeded Zipf corpus across worker
// processes, with a combiner and a small per-partition budget so map
// workers seal several spool sections per task.
type wordcountProc struct {
	lines      []string
	splitPairs int         // reduce range-split target, so hot partitions split
	words      int64       // total words in the corpus
	want       []wordCount // the same job run in-process at set-up
}

// wordCount is one output record.
type wordCount struct {
	Word  string
	Count int
}

// wcBudget is the pairs per partition each map worker buffers before
// it seals a spool section.
const wcBudget = 256

func wordcountJob() *mr.Job[string, string, int, wordCount] {
	sum := func(vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	}
	return &mr.Job[string, string, int, wordCount]{
		Name: "wordcount-proc",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int) []int { return []int{sum(vs)} },
		Reduce: func(w string, vs []int, emit func(wordCount)) {
			emit(wordCount{Word: w, Count: sum(vs)})
		},
	}
}

// The job runs in worker processes, which re-execute this binary, so it
// is registered in every process before main runs.
func init() { mr.RegisterProc(wordcountJob()) }

func prepareWordcount(seed int64, smoke bool) (instance, string, error) {
	lines, vocab, perLine, splitPairs := 100_000, 50_000, 10, 16_384
	if smoke {
		lines, vocab, splitPairs = 2000, 2000, 512
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(vocab-1))
	w := &wordcountProc{lines: make([]string, lines), splitPairs: splitPairs, words: int64(lines * perLine)}
	serial := make(map[string]int)
	var sb strings.Builder
	for i := range w.lines {
		sb.Reset()
		for j := 0; j < perLine; j++ {
			word := "w" + strconv.FormatUint(zipf.Uint64(), 10)
			serial[word]++
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(word)
		}
		w.lines[i] = sb.String()
	}

	ref := wordcountJob()
	ref.Config = mr.Config{Workers: workers(), Partitions: partitions}
	outs, _, err := ref.Run(w.lines)
	if err != nil {
		return nil, "", fmt.Errorf("in-process reference run: %w", err)
	}
	if len(outs) != len(serial) {
		return nil, "", fmt.Errorf("in-process reference: %d words, serial count has %d", len(outs), len(serial))
	}
	for _, o := range outs {
		if serial[o.Word] != o.Count {
			return nil, "", fmt.Errorf("in-process reference: %q counted %d, serial count %d", o.Word, o.Count, serial[o.Word])
		}
	}
	w.want = outs
	return w, fmt.Sprintf("lines=%d vocab=%d zipf_s=1.1 budget=%d split_pairs=%d partitions=%d",
		lines, vocab, wcBudget, splitPairs, partitions), nil
}

func (w *wordcountProc) run(env jobEnv) (jobSample, error) {
	job := wordcountJob()
	job.Config = mr.Config{
		ProcMode:         true,
		Workers:          workers(),
		Partitions:       partitions,
		MemoryBudget:     wcBudget,
		ReduceSplitPairs: w.splitPairs,
		Recorder:         env.rec,
	}
	outs, s, err := measure(func() ([]wordCount, mr.Metrics, error) { return job.Run(w.lines) })
	if err != nil {
		return s, err
	}
	errs := []error{expect("pairs emitted", s.met.PairsEmitted, w.words)}
	if !slices.Equal(outs, w.want) {
		errs = append(errs, fmt.Errorf("proc output (%d words) differs from the in-process run (%d words)", len(outs), len(w.want)))
	}
	if s.met.PairsShuffled >= s.met.PairsEmitted || s.met.BytesSpilled == 0 {
		errs = append(errs, fmt.Errorf("combiner or spool inactive: %d of %d pairs shuffled, %d spool bytes",
			s.met.PairsShuffled, s.met.PairsEmitted, s.met.BytesSpilled))
	}
	return s, errors.Join(errs...)
}
