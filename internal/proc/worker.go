// The worker process: poll the driver for tasks over the unix socket,
// heartbeat the lease while executing, write map output as fenced spool
// sections committed through the manifest, and report. Workers are the
// same binary as the driver — the role travels in the environment, so
// MaybeWorker at the top of main (or TestMain) turns any process into a
// worker when the driver spawned it as one.
package proc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// workerCtx bounds the worker's control-plane retries. Workers live and
// die by the driver's word (and its process lifetime), so the context
// is unbounded; the retry budgets bound each interaction.
func workerCtx() context.Context { return context.Background() }

// Environment contract between driver and worker. Everything a worker
// needs rides in env so the spawn command's argv is unconstrained.
const (
	envWorker = "MR_PROC_WORKER" // "1" marks a worker process
	envSocket = "MR_PROC_SOCKET" // driver's unix socket path
	envDir    = "MR_PROC_DIR"    // job scratch directory
	envJob    = "MR_PROC_JOB"    // registered job name
	envID     = "MR_PROC_ID"     // this worker's identity

	// Observability (Options.WorkerTraceDir).
	envTraceDir = "MR_PROC_TRACE" // dir for per-worker Perfetto traces

	// Test knobs (crash injection; see crashPoint).
	envSlowMS = "MR_PROC_SLOW_MS" // dwell this many ms inside every task
	envKill   = "MR_PROC_KILL"    // "point:taskID" self-SIGKILL spec
)

// inputsFile is the job's encoded input records inside the scratch dir.
const inputsFile = "inputs.gob"

// MaybeWorker turns the current process into a worker and never returns
// if the driver spawned it as one; otherwise it is a no-op. Call it
// first thing in main (or TestMain) of any binary used as
// Options.WorkerCommand — including the default, the current binary
// re-executed.
func MaybeWorker() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	if err := WorkerMain(); err != nil {
		fmt.Fprintln(os.Stderr, "mrworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain runs the worker loop against the driver named by the
// environment until the driver says exit (nil) or becomes unreachable.
func WorkerMain() error {
	id := os.Getenv(envID)
	dir := os.Getenv(envDir)
	socket := os.Getenv(envSocket)
	jobName := os.Getenv(envJob)
	if id == "" || dir == "" || socket == "" || jobName == "" {
		return fmt.Errorf("proc: worker env incomplete (%s=%q %s=%q %s=%q %s=%q)",
			envID, id, envDir, dir, envSocket, socket, envJob, jobName)
	}
	job, err := lookup(jobName)
	if err != nil {
		return err
	}
	ws, err := newWorkerState(id, dir, socket)
	if err != nil {
		return err
	}
	defer ws.close()
	return ws.loop(job)
}

// workerState is one worker process's runtime: its RPC client, spools,
// manifest, and the crash-injection knobs.
type workerState struct {
	id     string
	dir    string
	client *rpc.Client

	spools   *spoolSet
	manifest *manifestWriter

	slow      time.Duration // dwell inside every task (test knob)
	killPoint string        // crash point name ("" disables)
	killID    int           // task/partition the crash point is armed for

	// rec is this process's own recorder (non-nil only when the driver
	// set MR_PROC_TRACE): task spans land on lane, and each map task's
	// shuffle emits its seal/block events on partition lanes inside it.
	// The trace is exported to traceFile on clean exit.
	rec       *obs.Recorder
	lane      *obs.Ring
	traceFile string

	// scratch buffers reused across groups.
	kbuf, vbuf []byte
}

// rpcBackoff is the worker's policy for transient control-plane
// failures: dialing the socket before the driver listens, a report call
// racing a driver hiccup. Roughly 10ms..2s doubling, ~10 tries.
var rpcBackoff = Backoff{}

func newWorkerState(id, dir, socket string) (*workerState, error) {
	var client *rpc.Client
	err := rpcBackoff.Retry(workerCtx(), func() error {
		var err error
		client, err = rpc.Dial("unix", socket)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("proc: dialing driver at %s: %w", socket, err)
	}
	var ack Ack
	if err := client.Call("Coord.Register", RegisterArgs{Worker: id, PID: os.Getpid()}, &ack); err != nil {
		client.Close()
		return nil, fmt.Errorf("proc: registering with driver: %w", err)
	}
	ws := &workerState{id: id, dir: dir, client: client, spools: newSpoolSet(dir, id)}
	if ms, err := strconv.Atoi(os.Getenv(envSlowMS)); err == nil && ms > 0 {
		ws.slow = time.Duration(ms) * time.Millisecond
	}
	if spec := os.Getenv(envKill); spec != "" {
		if point, idStr, ok := strings.Cut(spec, ":"); ok {
			if n, err := strconv.Atoi(idStr); err == nil {
				ws.killPoint, ws.killID = point, n
			}
		}
	}
	if tdir := os.Getenv(envTraceDir); tdir != "" {
		ws.rec = obs.NewRecorder(0)
		seq := 0
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "w")); err == nil {
			seq = n
		}
		ws.lane = ws.rec.Lane(obs.LaneProc, seq)
		ws.traceFile = filepath.Join(tdir, "trace-"+id+".json")
	}
	return ws, nil
}

func (ws *workerState) close() {
	ws.spools.closeAll()
	if ws.manifest != nil {
		ws.manifest.close()
	}
	if ws.rec != nil {
		if err := obs.WriteTraceFile(ws.traceFile, ws.rec); err != nil {
			fmt.Fprintf(os.Stderr, "mrworker %s: dropping trace: %v\n", ws.id, err)
		}
	}
	ws.client.Close()
}

func (ws *workerState) ensureManifest() error {
	if ws.manifest != nil {
		return nil
	}
	m, err := openManifest(ws.dir, ws.id)
	if err != nil {
		return err
	}
	ws.manifest = m
	return nil
}

// crashPoint self-SIGKILLs when the named injection point is armed for
// this task. The kill is one-shot per job directory: an exclusive-create
// marker file makes sure a replacement worker running the re-executed
// task does not die again, so each knob injects exactly one crash. pre
// runs after the marker is claimed and before the kill (e.g. flushing a
// torn section's bytes into the kernel).
func (ws *workerState) crashPoint(point string, id int, pre func()) {
	if ws.killPoint != point || ws.killID != id {
		return
	}
	marker := filepath.Join(ws.dir, fmt.Sprintf("killed-%s-%d", point, id))
	f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // already fired once
	}
	f.Close()
	if pre != nil {
		pre()
	}
	p, _ := os.FindProcess(os.Getpid())
	p.Kill()
	select {} // SIGKILL is not instantaneous; never execute past this point
}

// loop polls for tasks until exit. Transient RPC failures are retried
// with backoff; a driver that stays unreachable ends the worker.
func (ws *workerState) loop(job runnable) error {
	var inputs any
	for {
		var t Task
		err := rpcBackoff.Retry(workerCtx(), func() error {
			t = Task{}
			return ws.client.Call("Coord.Poll", PollArgs{Worker: ws.id}, &t)
		})
		if err != nil {
			return fmt.Errorf("proc: polling driver: %w", err)
		}
		switch t.Kind {
		case TaskExit:
			return nil
		case TaskWait:
			d := t.PollAfter
			if d <= 0 {
				d = 20 * time.Millisecond
			}
			time.Sleep(d)
		case TaskMap:
			if inputs == nil {
				var err error
				if inputs, _, err = job.loadInputs(filepath.Join(ws.dir, inputsFile)); err != nil {
					ws.report("Coord.MapDone", &Ack{}, MapReport{
						Worker: ws.id, Task: t.ID, Attempt: t.Attempt, Err: err.Error(), Fatal: true,
					})
					return err
				}
			}
			rep := ws.runTask(TaskMap, t, func() (any, error) { return job.runMapTask(ws, inputs, t) })
			ws.report("Coord.MapDone", &Ack{}, rep.(MapReport))
		case TaskReduce:
			rep := ws.runTask(TaskReduce, t, func() (any, error) { return job.runReduceTask(ws, t) })
			ws.report("Coord.ReduceDone", &Ack{}, rep.(ReduceReport))
		}
	}
}

// runTask executes one assignment under a heartbeat, converting an
// execution error into a failure report.
func (ws *workerState) runTask(kind TaskKind, t Task, run func() (any, error)) any {
	op := obs.OpProcMapTask
	if kind == TaskReduce {
		op = obs.OpProcReduceTask
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.heartbeatLoop(done, kind, t.ID, t.Attempt, t.HeartbeatEvery)
	}()
	rep, err := func() (any, error) {
		// Stop the heartbeat (and reap its goroutine) on every way out of
		// the task body — success, error, or a panic unwinding through us
		// — so no ticker or goroutine outlives its task.
		defer func() {
			close(done)
			wg.Wait()
		}()
		ws.lane.Begin(op, int64(t.ID), int64(t.Attempt))
		if ws.slow > 0 {
			time.Sleep(ws.slow)
		}
		return run()
	}()
	if err != nil {
		ws.lane.End(op, int64(t.ID), 1)
	} else {
		ws.lane.End(op, int64(t.ID), 0)
	}
	if err == nil {
		return rep
	}
	if kind == TaskMap {
		return MapReport{Worker: ws.id, Task: t.ID, Attempt: t.Attempt, Err: err.Error(), Fatal: isFatal(err)}
	}
	return ReduceReport{Worker: ws.id, Part: t.ID, Attempt: t.Attempt, Err: err.Error(), Fatal: isFatal(err)}
}

// heartbeatLoop renews the lease on (kind, id, attempt) every interval
// until the task finishes, the driver cancels the attempt, or the
// driver becomes unreachable. It only renews — cancellation does not
// abort the running task; the driver's fencing refuses the stale report
// either way.
func (ws *workerState) heartbeatLoop(done <-chan struct{}, kind TaskKind, id, attempt int, every time.Duration) {
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			var rep HeartbeatReply
			err := ws.client.Call("Coord.Heartbeat", HeartbeatArgs{
				Worker: ws.id, Kind: kind, ID: id, Attempt: attempt,
			}, &rep)
			if err != nil || rep.Cancel {
				return
			}
		}
	}
}

// report delivers a completion report with retries. A report that still
// cannot be delivered is dropped: the lease will expire and the task
// re-run, which is correct (if slower) — reports are advisory to the
// worker, authoritative only once the driver accepts them.
func (ws *workerState) report(method string, reply any, args any) {
	err := rpcBackoff.Retry(workerCtx(), func() error {
		return ws.client.Call(method, args, reply)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrworker %s: dropping %s report: %v\n", ws.id, method, err)
	}
}

// fatalErr marks an execution error retrying cannot fix (an unencodable
// key type, a violated reducer-size limit): the driver fails the job
// instead of re-granting the task.
type fatalErr struct{ error }

func fatal(err error) error {
	if err == nil {
		return nil
	}
	return fatalErr{err}
}

func isFatal(err error) bool {
	var f fatalErr
	return errors.As(err, &f)
}

// sectionSink receives a map task's sealed runs and writes each as one
// fenced spool section — the seam that marries the shuffle's task
// writer (threshold sealing, combiner push-down) to the per-task
// section + manifest commit protocol. Seals arrive on the task's one
// goroutine.
type sectionSink[K comparable, V any] struct {
	ws      *workerState
	task    int
	attempt int
	seq     map[int]int // next section ordinal per partition
	secs    []Section
}

// write appends one sealed run (post-combine, keys sorted) as a spool
// section. The torn-section crash knob arms only inside the task's
// first section, matching the pre-streaming injection point: the spool
// gets a headerful of bytes with no footer and no manifest record.
func (sk *sectionSink[K, V]) write(part int, keys []K, groups map[K][]V) error {
	ws := sk.ws
	arm := len(sk.secs) == 0
	sec, err := ws.spools.appendSection(sk.task, sk.attempt, part, sk.seq[part], func(w *runfile.Writer) error {
		for gi, k := range keys {
			kb, err := runfile.Append(ws.kbuf[:0], k)
			if err != nil {
				return fatal(fmt.Errorf("proc: encoding key: %w", err))
			}
			ws.kbuf = kb
			vs := groups[k]
			if err := w.BeginGroup(kb, len(vs)); err != nil {
				return err
			}
			for _, v := range vs {
				vb, err := runfile.Append(ws.vbuf[:0], v)
				if err != nil {
					return fatal(fmt.Errorf("proc: encoding value: %w", err))
				}
				ws.vbuf = vb
				if err := w.AppendValue(vb); err != nil {
					return err
				}
			}
			if arm && gi == len(keys)/2 {
				ws.crashPoint("map-torn", sk.task, func() { w.Flush() })
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sk.seq[part]++
	sk.secs = append(sk.secs, sec)
	return nil
}

// sections returns everything written, in (Part, Seq) order.
func (sk *sectionSink[K, V]) sections() []Section {
	sort.Slice(sk.secs, func(i, j int) bool {
		if sk.secs[i].Part != sk.secs[j].Part {
			return sk.secs[i].Part < sk.secs[j].Part
		}
		return sk.secs[i].Seq < sk.secs[j].Seq
	})
	return sk.secs
}

// runMapTask maps records [Lo, Hi) through a worker-local shuffle's
// task writer — the same one the in-process engine uses — with the
// whole MemoryBudget as its seal threshold (one writer per process), so
// combiner push-down and spill-as-sorted-sections happen inside the
// worker, mid-task, and resident pairs stay at or under
// P*MemoryBudget. Every sealed run, the tail included, lands in the
// spools as one fenced section via sectionSink; the task then commits
// all its sections with one manifest record before reporting (the
// manifest write is the task's durability point, and with MemoryBudget
// zero the layout degenerates to one section per non-empty partition).
func (j *jobImpl[I, K, V, O]) runMapTask(ws *workerState, inputs any, t Task) (MapReport, error) {
	ins, ok := inputs.([]I)
	if !ok {
		return MapReport{}, fatal(fmt.Errorf("proc: job %q inputs are %T, not []%T", j.spec.Name, inputs, *new(I)))
	}
	if t.Lo < 0 || t.Hi > len(ins) || t.Lo > t.Hi {
		return MapReport{}, fatal(fmt.Errorf("proc: map task %d range [%d,%d) outside %d inputs", t.ID, t.Lo, t.Hi, len(ins)))
	}
	if err := ws.ensureManifest(); err != nil {
		return MapReport{}, err
	}
	sh := shuffle.New[K, V](shuffle.Options{
		Partitions:   t.Partitions,
		MemoryBudget: t.MemoryBudget,
		Recorder:     ws.rec,
	})
	var hasher shuffle.StableHasher[K]
	var emitErr error
	sh.SetPartitioner(func(k K) int {
		p, err := j.partition(&hasher, k, t.Partitions)
		if err != nil {
			if emitErr == nil {
				emitErr = err
			}
			return 0
		}
		return p
	})
	if j.spec.Combine != nil {
		sh.SetCombiner(j.spec.Combine)
	}
	sink := &sectionSink[K, V]{ws: ws, task: t.ID, attempt: t.Attempt, seq: make(map[int]int)}
	sh.SetSealSink(sink.write)

	tw := sh.TaskWriters(1)[0]
	tw.Begin(t.ID, t.Attempt)
	var pairsEmitted int64
	for i := t.Lo; i < t.Hi && emitErr == nil; i++ {
		j.spec.Map(ins[i], func(k K, v V) {
			pairsEmitted++
			if emitErr == nil {
				tw.Emit(k, v)
			}
		})
	}
	if emitErr != nil {
		tw.Abort()
		return MapReport{}, fatal(fmt.Errorf("proc: partitioning map task %d: %w", t.ID, emitErr))
	}
	if err := tw.Commit(); err != nil {
		err = fmt.Errorf("proc: sealing map task %d: %w", t.ID, err)
		if errors.Is(err, shuffle.ErrNaNKey) {
			err = fatal(err) // the map function's output, not the worker: a retry repeats it
		}
		return MapReport{}, err
	}
	secs := sink.sections()
	peak := sh.PeakResidentPairs()
	if err := ws.manifest.commit(manifestEntry{
		Task: t.ID, Attempt: t.Attempt, PairsEmitted: pairsEmitted, PeakResident: peak, Sections: secs,
	}); err != nil {
		return MapReport{}, err
	}
	// Committed-but-unreported injection: the manifest record is durable,
	// the report never leaves — salvage must adopt this task.
	ws.crashPoint("map-manifest", t.ID, nil)
	return MapReport{
		Worker: ws.id, Task: t.ID, Attempt: t.Attempt,
		PairsEmitted: pairsEmitted, Sections: secs, PeakResident: peak,
	}, nil
}

// runReduceTask adopts the partition's committed sections — each a
// sorted run, ordered (Task, Attempt, Seq) by the driver — as the disk
// runs of a worker-local shuffle partition and streams them through
// the shuffle's RangeReader heap merge, reducing every group in
// canonical key order as it surfaces and writing the partition's
// output file (gob: group count, then outGroups). Only the sections'
// indexes and one decoded group per run are resident at a time: the
// memory bound is the merge fan-in plus the largest single group, not
// the partition size.
//
// With Task.ReduceSplitPairs set, the worker plans key ranges, cut
// between distinct keys, from the adopted indexes (PlanReduceRanges,
// no value read) and runs the range merges concurrently over the
// shared read surface, then concatenates their groups in range order,
// so the output file is byte-identical to the unsplit merge.
// PeakResident stays the largest single decoded group either way, but
// a split attempt holds up to one group per concurrent range resident
// at once — the documented residency multiplier of range concurrency.
func (j *jobImpl[I, K, V, O]) runReduceTask(ws *workerState, t Task) (ReduceReport, error) {
	ws.crashPoint("reduce", t.ID, nil)
	sh := shuffle.New[K, V](shuffle.Options{Partitions: 1})
	images := make([]shuffle.RunImage, len(t.Sections))
	var bytesRead int64
	for i, sec := range t.Sections {
		images[i] = shuffle.RunImage{Path: sec.Path, Offset: sec.Offset, Length: sec.Length, DataBytes: sec.DataBytes}
		bytesRead += sec.DataBytes
	}
	if err := sh.Adopt(0, images); err != nil {
		return ReduceReport{}, err
	}
	part := sh.Partition(0)
	maxRanges := t.ReduceRangeConcurrency
	if maxRanges <= 0 {
		// A split target is an explicit opt-in: keep at least two ranges
		// even on a single-CPU worker so the requested split happens.
		maxRanges = max(runtime.GOMAXPROCS(0), 2)
	}
	ranges := part.PlanReduceRanges(int64(t.ReduceSplitPairs), maxRanges)
	nRanges := int64(len(ranges))
	if ranges == nil {
		ranges = []shuffle.KeyRange[K]{{}}
	}
	rr, err := part.OpenRangeReader()
	if err != nil {
		return ReduceReport{}, err
	}
	defer rr.Close()
	rangeGroups := make([][]outGroup[K, O], len(ranges))
	stats := make([]mergeStats, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for r := range ranges {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rangeGroups[r], stats[r], errs[r] = j.reduceRange(rr, ranges[r], t)
		}(r)
	}
	wg.Wait()
	var groups []outGroup[K, O]
	var st mergeStats
	for r := range ranges {
		if errs[r] != nil {
			return ReduceReport{}, errs[r]
		}
		groups = append(groups, rangeGroups[r]...)
		st.keys += stats[r].keys
		st.outputs += stats[r].outputs
		st.pairsIn += stats[r].pairsIn
		st.maxGroup = max(st.maxGroup, stats[r].maxGroup)
	}
	path := outPath(ws.dir, t.ID, t.Attempt)
	if err := writeOutputs(path, groups); err != nil {
		return ReduceReport{}, err
	}
	return ReduceReport{
		Worker: ws.id, Part: t.ID, Attempt: t.Attempt, OutPath: path,
		Keys: st.keys, Outputs: st.outputs, MaxGroup: st.maxGroup,
		PairsIn: st.pairsIn, BytesRead: bytesRead, PeakResident: st.maxGroup,
		Ranges: nRanges,
	}, nil
}

// mergeStats is one range merge's group profile, summed across ranges
// when the partition was split.
type mergeStats struct {
	keys, outputs, maxGroup, pairsIn int64
}

// reduceRange reduces the groups of one key range of the adopted
// partition and returns them in canonical key order.
func (j *jobImpl[I, K, V, O]) reduceRange(rr *shuffle.RangeReader[K, V], kr shuffle.KeyRange[K], t Task) ([]outGroup[K, O], mergeStats, error) {
	var st mergeStats
	var groups []outGroup[K, O]
	err := rr.ForEachGroupRange(kr, j.spec.BatchReduce, func(k K, vs []V) error {
		n := int64(len(vs))
		if t.MaxReducerInput > 0 && n > int64(t.MaxReducerInput) {
			return fatal(fmt.Errorf(
				"proc: reducer for a key in partition %d received %d values, limit %d", t.ID, n, t.MaxReducerInput))
		}
		st.maxGroup = max(st.maxGroup, n)
		st.pairsIn += n
		g := outGroup[K, O]{Key: k, Load: len(vs)}
		j.spec.Reduce(k, vs, func(o O) { g.Outs = append(g.Outs, o) })
		st.outputs += int64(len(g.Outs))
		st.keys++
		groups = append(groups, g)
		return nil
	})
	if err != nil && !isFatal(err) {
		err = fmt.Errorf("proc: reading values in partition %d: %w", t.ID, err)
	}
	return groups, st, err
}

// writeOutputs encodes one reduce attempt's groups to its output file:
// a gob stream of the group count followed by each group, already in
// canonical key order.
func writeOutputs[K comparable, O any](path string, groups []outGroup[K, O]) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("proc: creating reduce output: %w", err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(len(groups)); err != nil {
		f.Close()
		return fmt.Errorf("proc: encoding output count: %w", err)
	}
	for i := range groups {
		if err := enc.Encode(&groups[i]); err != nil {
			f.Close()
			return fmt.Errorf("proc: encoding output group: %w", err)
		}
	}
	return f.Close()
}

// readOutputs decodes one accepted reduce output file through the
// driver's FS (so reopen faults are injectable).
func readOutputs[K comparable, O any](fs runfile.FS, path string) ([]outGroup[K, O], error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("proc: opening reduce output %s: %w", path, err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("proc: decoding output count in %s: %w", path, err)
	}
	groups := make([]outGroup[K, O], n)
	for i := range groups {
		if err := dec.Decode(&groups[i]); err != nil {
			return nil, fmt.Errorf("proc: decoding output group in %s: %w", path, err)
		}
	}
	return groups, nil
}

// sortSectionsByTask orders a reduce task's input sections by (Task,
// Attempt, Seq) — the value-order contract (values arrive in map-task
// order, and within a task in the order its winning attempt sealed
// them). Attempt breaks the tie when a salvaged section and a
// re-executed attempt's section coexist for the same task; sorting by
// Task alone left that order unstable across runs.
func sortSectionsByTask(secs []Section) {
	sort.Slice(secs, func(i, j int) bool {
		a, b := secs[i], secs[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Seq < b.Seq
	})
}
