package shuffle

import (
	"fmt"
	"math/rand"
	"testing"
)

// residentModel is a serial reference for the shuffle's resident pair
// count: it replays the task writers' seal, combine, abort and commit
// rules on pair counts alone and tracks the exact high-water mark of
// the total.
type residentModel struct {
	parts     int
	threshold int
	spill     bool // sealed runs leave memory
	combine   bool // the combiner keeps one value per key
	total     int64
	peak      int64
	writers   []*modelWriter
}

type modelWriter struct {
	live      []map[int]int // per partition: values held per key
	livePairs []int
	sealed    int64 // the attempt's sealed in-memory pairs
}

// phase opens n writers with the shuffle's threshold rule.
func (m *residentModel) phase(n, budget int) {
	m.threshold = 0
	if budget > 0 {
		m.threshold = max(budget/n, 1)
	}
	m.writers = make([]*modelWriter, n)
	for i := range m.writers {
		w := &modelWriter{live: make([]map[int]int, m.parts), livePairs: make([]int, m.parts)}
		for p := range w.live {
			w.live[p] = map[int]int{}
		}
		m.writers[i] = w
	}
}

func (m *residentModel) emit(wi, k int) {
	w, p := m.writers[wi], k%m.parts
	w.live[p][k]++
	w.livePairs[p]++
	m.total++
	m.peak = max(m.peak, m.total)
	if m.threshold > 0 && w.livePairs[p] >= m.threshold {
		m.seal(w, p, false)
	}
}

func (m *residentModel) seal(w *modelWriter, p int, tail bool) {
	n := w.livePairs[p]
	if n == 0 {
		return
	}
	if m.combine {
		post := len(w.live[p])
		for k := range w.live[p] {
			w.live[p][k] = 1
		}
		m.total -= int64(n - post)
		n, w.livePairs[p] = post, post
		if !tail && n <= m.threshold/2 {
			return
		}
	}
	if m.spill {
		m.total -= int64(n)
	} else {
		w.sealed += int64(n)
	}
	clear(w.live[p])
	w.livePairs[p] = 0
}

func (m *residentModel) commit(wi int) {
	w := m.writers[wi]
	for p := range w.live {
		m.seal(w, p, true)
	}
	w.sealed = 0 // now committed runs; still in the total
}

func (m *residentModel) abort(wi int) {
	w := m.writers[wi]
	for p := range w.live {
		m.total -= int64(w.livePairs[p])
		clear(w.live[p])
		w.livePairs[p] = 0
	}
	m.total -= w.sealed
	w.sealed = 0
}

// residentRig drives a shuffle's task writers and the model in
// lockstep from one goroutine, so the true peak is known.
type residentRig struct {
	t       *testing.T
	s       *Shuffle[int, int]
	m       *residentModel
	budget  int
	tws     []*TaskWriter[int, int]
	task    []int // each writer's open task, -1 when idle
	attempt []int
	next    int // next task number to hand out
}

func newResidentRig(t *testing.T, parts, budget int, spill, combine bool) *residentRig {
	opts := Options{Partitions: parts, MemoryBudget: budget}
	if spill {
		opts.SpillDir = t.TempDir()
	}
	s := New[int, int](opts)
	t.Cleanup(func() { s.Close() })
	if combine {
		s.SetCombiner(func(_ int, vs []int) []int {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return []int{sum}
		})
	}
	s.SetPartitioner(func(k int) int { return k })
	return &residentRig{
		t: t, s: s, budget: budget,
		m: &residentModel{parts: parts, spill: spill, combine: combine},
	}
}

// phase finishes the running map phase, if any, and opens n writers.
func (r *residentRig) phase(n int) {
	r.endPhase()
	r.tws = r.s.TaskWriters(n)
	r.task, r.attempt = make([]int, n), make([]int, n)
	for wi := range r.task {
		r.task[wi] = -1
	}
	r.m.phase(n, r.budget)
}

// endPhase commits every open task and finishes the map phase.
func (r *residentRig) endPhase() {
	for wi := range r.tws {
		r.commit(wi)
	}
	if r.tws != nil {
		if err := r.s.Finish(); err != nil {
			r.t.Fatal(err)
		}
		r.tws = nil
	}
}

func (r *residentRig) emit(wi, k int) {
	if r.task[wi] < 0 {
		r.task[wi], r.attempt[wi] = r.next, 0
		r.next++
		r.tws[wi].Begin(r.task[wi], 0)
	}
	r.tws[wi].Emit(k, 1)
	r.m.emit(wi, k)
	r.check("emit")
}

func (r *residentRig) commit(wi int) {
	if r.task[wi] < 0 {
		return
	}
	if err := r.tws[wi].Commit(); err != nil {
		r.t.Fatal(err)
	}
	r.m.commit(wi)
	r.task[wi] = -1
	r.check("commit")
}

// abort drops the writer's attempt and begins its retry.
func (r *residentRig) abort(wi int) {
	if r.task[wi] < 0 {
		return
	}
	r.tws[wi].Abort()
	r.m.abort(wi)
	r.attempt[wi]++
	r.tws[wi].Begin(r.task[wi], r.attempt[wi])
	r.check("abort")
}

// check compares the current total only: sampling the peak here would
// take a sum after every step and hide a peak missed at a release.
func (r *residentRig) check(op string) {
	r.t.Helper()
	if got := r.s.ResidentPairs(); got != r.m.total {
		r.t.Fatalf("after %s: ResidentPairs = %d, model holds %d", op, got, r.m.total)
	}
}

// finish ends the script and compares the peak with the model's.
func (r *residentRig) finish() {
	r.t.Helper()
	r.endPhase()
	st, err := r.s.Stats()
	if err != nil {
		r.t.Fatal(err)
	}
	if got := r.s.PeakResidentPairs(); got != r.m.peak || st.PeakResidentPairs != r.m.peak {
		r.t.Fatalf("PeakResidentPairs = %d (Stats %d), model peak %d", got, st.PeakResidentPairs, r.m.peak)
	}
	if got := r.s.ResidentPairs(); got != r.m.total {
		r.t.Fatalf("after Finish: ResidentPairs = %d, model holds %d", got, r.m.total)
	}
}

// TestPeakResidentCountsIdleWriters is the case a design flushing
// per-writer counts only when a writer seals gets wrong: writers A and
// B each hold T-1 pairs, then A's T-th emit seals its run. The resident
// total was 2T-1 just before that seal released A's T pairs; a
// seal-time flush would see only A's T.
func TestPeakResidentCountsIdleWriters(t *testing.T) {
	const T = 8
	r := newResidentRig(t, 2, 2*T, true, false) // 2 writers: threshold T
	r.phase(2)
	for i := 0; i < T-1; i++ {
		r.emit(0, 0)
		r.emit(1, 2)
	}
	r.emit(0, 0) // A's T-th pair seals and releases its run
	if got := r.s.ResidentPairs(); got != T-1 {
		t.Fatalf("after A's seal ResidentPairs = %d, want B's %d", got, T-1)
	}
	r.finish()
	if r.m.peak != 2*T-1 {
		t.Fatalf("model peak %d, want 2T-1 = %d", r.m.peak, 2*T-1)
	}
}

// TestPeakResidentMatchesModel drives scripted interleavings of
// several task writers — threshold seals, combiner releases, aborts
// with retries, commits of in-memory runs and a second map phase on
// the same shuffle — from one goroutine, and requires the shuffle's
// resident count after every step, and its peak at the end, to equal
// a serial model's.
func TestPeakResidentMatchesModel(t *testing.T) {
	const parts = 4
	for _, spill := range []bool{false, true} {
		for _, combine := range []bool{false, true} {
			for _, budget := range []int{0, 6, 24} {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("spill=%v/combine=%v/budget=%d/seed=%d", spill, combine, budget, seed)
					t.Run(name, func(t *testing.T) {
						r := newResidentRig(t, parts, budget, spill, combine)
						rng := rand.New(rand.NewSource(seed))
						for _, writers := range []int{3, 2} { // two map phases
							r.phase(writers)
							for step := 0; step < 400; step++ {
								wi := rng.Intn(writers)
								switch x := rng.Intn(100); {
								case x < 4:
									r.commit(wi)
								case x < 6:
									r.abort(wi)
								default:
									// Few keys per partition, so combines free pairs.
									r.emit(wi, rng.Intn(3*parts))
								}
							}
						}
						r.finish()
					})
				}
			}
		}
	}
}
