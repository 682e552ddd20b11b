// Package proc is the multi-process execution mode: a driver process
// that forks worker processes and runs one map-reduce round across
// them, with the per-partition spool files as the actual exchange
// medium between map and reduce — "communication cost" becomes bytes
// written across a process boundary, not a memcpy.
//
// The control plane is a unix-socket RPC seam (net/rpc): workers poll
// the driver for tasks, heartbeat their leases while executing, and
// report completions. The driver runs every assignment through an
// engine.LeaseTable, so each execution is fenced by its (task, attempt)
// pair: a worker that stalls past its lease TTL, or dies outright, is
// superseded by a re-grant with a bumped attempt, and any late report
// from the fenced attempt is refused. Speculative re-execution is the
// same primitive — grant a duplicate attempt of the slowest in-flight
// task, first completion wins.
//
// The data plane is the in-process one, crash-tolerant by
// construction. A map worker writes each task through the shuffle's
// task writer, appending every sealed run as a sorted run-file section
// of its per-partition spool files, then commits the task by appending
// one record to its manifest before reporting; a reduce worker adopts
// its committed sections and reads them through the shuffle's
// RangeReader merge. Bytes written to a file survive kill -9 (they are
// in the kernel regardless of process death), so on a worker's death
// the driver salvages tasks that completed but never reported: it
// replays the manifest and adopts sections that validate —
// runfile.LoadIndex falls back from a torn footer to a sequential scan,
// and the recovered group/pair counts must match the manifest's.
// Anything torn or unaccounted is discarded and the task re-executed;
// map functions are required to be deterministic, so the job's output
// is byte-identical either way. The runtime is process-crash durable
// (the kill -9 matrix) but not power-loss durable: nothing calls
// fsync, so data the kernel has not yet written back can be lost with
// the machine.
//
// Because map and reduce run in different processes, key placement
// cannot use the in-process maphash seed; partitioning uses
// shuffle.StableHasher (or the job's explicit Partition func), which
// every process computes identically.
//
// Jobs must be registered (Register) under a name in both the driver
// and the worker binary — normally the same binary, with the role
// chosen by environment (MaybeWorker) or flags (cmd/mrworker) — so
// both sides execute the same code.
package proc

import (
	"encoding/gob"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// JobSpec is one named map-reduce round, typed end to end. The
// functions must be deterministic and side-effect free: the runtime
// re-executes tasks after worker death, lease expiry, and for
// speculation, and the output contract (byte-identical results no
// matter which attempts won) depends on it.
type JobSpec[I any, K comparable, V, O any] struct {
	Name string
	// Map transforms one input record into zero or more key-value pairs.
	Map func(in I, emit func(K, V))
	// Reduce processes one key with all its values (map task order).
	Reduce func(key K, values []V, emit func(O))
	// Combine optionally pre-aggregates one key's values inside a map
	// task before the pairs cross the process boundary. Must satisfy
	// reduce(k, combine(vs)) == reduce(k, vs), and under a MemoryBudget
	// it is applied repeatedly (at every seal), so it must also tolerate
	// combine(append(combine(a), b...)) — associative pre-aggregation.
	Combine func(key K, values []V) []V
	// Partition optionally overrides key placement onto partitions. It
	// MUST be a pure function of the key (it runs in every worker
	// process); the default is shuffle.StableHasher.
	Partition func(K) int
	// BatchReduce declares that Reduce does not retain the values slice
	// after returning, letting reduce workers reuse one decode arena
	// across keys instead of allocating a fresh slice per key.
	BatchReduce bool
}

// Options configures a multi-process run.
type Options struct {
	// Workers is the number of worker processes. Zero means 3.
	Workers int
	// Partitions is the number of shuffle partitions (and the maximum
	// number of reduce tasks). Zero means 8.
	Partitions int
	// MapChunk is the number of input records per map task. Zero targets
	// ~4 tasks per worker.
	MapChunk int
	// MemoryBudget bounds each map worker's buffered pairs per partition:
	// a partition whose live run reaches this many pairs is sealed
	// (combined, sorted) and written to the spool as one section, inside
	// the worker, mid-task, so a worker holds at most P*MemoryBudget
	// pairs. Zero disables the bound — each task writes one section per
	// non-empty partition, all of it resident at once.
	MemoryBudget int
	// Dir is the job's scratch directory (inputs, spools, outputs,
	// manifests, socket). Empty creates a temp dir, removed when the
	// run finishes.
	Dir string
	// KeepDir preserves the scratch directory for post-mortems.
	KeepDir bool
	// WorkerCommand is the argv used to spawn each worker process. The
	// worker's configuration travels in the environment (see
	// MaybeWorker), so any command that reaches MaybeWorker or
	// WorkerMain works: cmd/mrworker, or the current binary re-executed
	// (the default when empty: os.Executable()).
	WorkerCommand []string
	// WorkerEnv is appended to each worker's environment (test knobs).
	WorkerEnv []string
	// LeaseTTL is how long a task lease survives without a heartbeat
	// before the driver fences it and re-grants the task. Zero means 2s.
	LeaseTTL time.Duration
	// MaxTaskAttempts caps the grants any one task receives before the
	// job fails. Zero means 5.
	MaxTaskAttempts int
	// MaxWorkerRestarts caps replacement workers spawned after
	// unexpected deaths. Zero means 2×Workers; negative disables
	// respawn.
	MaxWorkerRestarts int
	// SpeculativeAfter, when positive, re-grants the longest-unrenewed
	// in-flight task to an idle worker once it has been running that
	// long — speculative execution, fenced like any other duplicate.
	// Zero disables speculation.
	SpeculativeAfter time.Duration
	// MaxReducerInput, when positive, fails the job if any reduce key
	// receives more values (the paper's q limit).
	MaxReducerInput int
	// ReduceSplitPairs, when positive, has each reduce worker split its
	// partition's merge into key ranges of roughly this many pairs, cut
	// between distinct keys, and run them concurrently; output files
	// stay byte-identical to the unsplit merge. ReduceRangeConcurrency
	// caps the ranges per partition (zero selects GOMAXPROCS).
	ReduceSplitPairs       int
	ReduceRangeConcurrency int
	// Timeout bounds the whole run. Zero means 2 minutes.
	Timeout time.Duration
	// Recorder, when non-nil, receives driver-side lifecycle events:
	// per-worker-process lanes with spawn-to-exit spans and task
	// assignment spans, plus lease-expiry, worker-death, salvage and
	// stale-report instants. Nil records nothing.
	Recorder *obs.Recorder
	// FS is the driver-side filesystem for salvage validation and
	// output assembly. Nil means runfile.OSFS. Worker processes always
	// use the real filesystem — faults are injected there by killing
	// them.
	FS runfile.FS
	// WorkerTraceDir, when set, makes every worker process record its
	// own task-execution events (including its shuffle's seal and block
	// lanes) and write a Perfetto trace named trace-<worker>.json into
	// this directory when it exits cleanly.
	WorkerTraceDir string
	// Hooks are test seams; see Hooks.
	Hooks Hooks
}

// Hooks expose driver lifecycle moments to tests (crash injection
// points). All are optional and called synchronously from the driver's
// RPC or supervision paths — keep them fast.
type Hooks struct {
	// OnSpawn fires after a worker process starts.
	OnSpawn func(worker string, pid int)
	// OnMapCommitted fires when a map task's report is accepted.
	OnMapCommitted func(task, attempt int, worker string)
	// OnReduceAssigned fires when a reduce task is granted.
	OnReduceAssigned func(part, attempt int, worker string)
	// OnWorkerExit fires when a worker process exits (expected or not).
	OnWorkerExit func(worker string, pid int, err error)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 3
}

func (o Options) partitions() int {
	if o.Partitions > 0 {
		return o.Partitions
	}
	return 8
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return 2 * time.Second
}

func (o Options) maxTaskAttempts() int {
	if o.MaxTaskAttempts > 0 {
		return o.MaxTaskAttempts
	}
	return 5
}

func (o Options) maxWorkerRestarts() int {
	if o.MaxWorkerRestarts > 0 {
		return o.MaxWorkerRestarts
	}
	if o.MaxWorkerRestarts < 0 {
		return 0
	}
	return 2 * o.workers()
}

func (o Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 2 * time.Minute
}

func (o Options) fs() runfile.FS {
	if o.FS != nil {
		return o.FS
	}
	return runfile.OSFS
}

// Metrics is the communication and fault-tolerance profile of one
// multi-process run. The logical fields mirror mr.Metrics; the
// robustness counters are specific to this mode.
type Metrics struct {
	MapInputs       int64
	PairsEmitted    int64 // pre-combine communication cost
	PairsShuffled   int64 // post-combine pairs that crossed the boundary
	Reducers        int64
	MaxReducerInput int64
	Outputs         int64
	MapTasks        int64
	ReduceTasks     int64

	// BytesSpilled is the run data written to the inter-process spool
	// files by committed (accepted or salvaged) map attempts — genuinely
	// bytes over the process boundary. IndexBytesSpilled is the footer
	// metadata alongside it; a committed section occupies exactly
	// BytesSpilled+IndexBytesSpilled bytes of spool file.
	// DiskBytesRead is what accepted reduce attempts read back.
	BytesSpilled      int64
	IndexBytesSpilled int64
	DiskBytesRead     int64

	// PeakResidentPairs is the largest buffered-pair high-water mark any
	// accepted (or salvaged) task attempt observed inside a worker: map
	// attempts report their task writer's resident peak, reduce attempts
	// the largest single group the merge held decoded. With a
	// MemoryBudget set the map side stays at or under P*MemoryBudget
	// regardless of input size — the bound the paper's q-tradeoff needs
	// enforced.
	PeakResidentPairs int64

	// ReduceRanges is the total key-range units accepted reduce attempts
	// split their merges into under Options.ReduceSplitPairs (zero when
	// splitting was off or no partition crossed the threshold).
	ReduceRanges int64

	// MapRetries and ReduceRetries count task re-grants beyond the
	// first (lease expiry, worker death, speculation, reported
	// failures). WorkerDeaths counts worker processes that exited
	// without being told to. LeaseExpirations counts TTL sweeps that
	// fenced a lease. SalvagedTasks counts map tasks adopted from a
	// dead worker's manifest instead of re-executed. Speculative counts
	// duplicate grants issued to idle workers.
	MapRetries       int64
	ReduceRetries    int64
	WorkerDeaths     int64
	LeaseExpirations int64
	SalvagedTasks    int64
	Speculative      int64
}

// runnable is the untyped face of a registered job: what a worker
// process needs to execute tasks of any key/value types.
type runnable interface {
	jobName() string
	// loadInputs decodes the driver's input file into a typed slice,
	// returning it opaquely plus the record count.
	loadInputs(path string) (any, int, error)
	// runMapTask maps records [lo, hi) of the loaded inputs through a
	// shuffle task writer under the task's MemoryBudget, appending each
	// sealed run to the worker's spools as one fenced section.
	runMapTask(ws *workerState, inputs any, t Task) (MapReport, error)
	// runReduceTask adopts the task's sections into a shuffle partition,
	// merge-reads them, reduces every group as it surfaces, and writes
	// the partition's output file.
	runReduceTask(ws *workerState, t Task) (ReduceReport, error)
}

var registry = struct {
	mu   sync.Mutex
	jobs map[string]runnable
}{jobs: make(map[string]runnable)}

// Register makes the job runnable by name in this process. Both the
// driver and its workers must register the same spec (normally the
// same code path runs in both, since workers are the same binary).
// Registering a name twice replaces the previous spec.
func Register[I any, K comparable, V, O any](spec JobSpec[I, K, V, O]) {
	if spec.Name == "" {
		panic("proc: Register with empty job name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.jobs[spec.Name] = &jobImpl[I, K, V, O]{spec: spec}
}

// lookup returns the registered job by name.
func lookup(name string) (runnable, error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	j, ok := registry.jobs[name]
	if !ok {
		return nil, fmt.Errorf("proc: job %q is not registered in this process", name)
	}
	return j, nil
}

// jobImpl binds a typed spec to the untyped runnable interface.
type jobImpl[I any, K comparable, V, O any] struct {
	spec JobSpec[I, K, V, O]
}

func (j *jobImpl[I, K, V, O]) jobName() string { return j.spec.Name }

// writeInputs encodes the records to the job's input file: a gob stream
// of the count followed by each record.
func (j *jobImpl[I, K, V, O]) writeInputs(path string, inputs []I) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("proc: creating input file: %w", err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(len(inputs)); err != nil {
		f.Close()
		return fmt.Errorf("proc: encoding input count: %w", err)
	}
	for i := range inputs {
		if err := enc.Encode(&inputs[i]); err != nil {
			f.Close()
			return fmt.Errorf("proc: encoding input %d: %w", i, err)
		}
	}
	return f.Close()
}

func (j *jobImpl[I, K, V, O]) loadInputs(path string) (any, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("proc: opening input file: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, 0, fmt.Errorf("proc: decoding input count: %w", err)
	}
	inputs := make([]I, n)
	for i := 0; i < n; i++ {
		if err := dec.Decode(&inputs[i]); err != nil {
			return nil, 0, fmt.Errorf("proc: decoding input %d: %w", i, err)
		}
	}
	return inputs, n, nil
}

// partition places k on one of p partitions: the explicit Partition
// func reduced modulo p, or the stable cross-process hash.
func (j *jobImpl[I, K, V, O]) partition(h *shuffle.StableHasher[K], k K, p int) (int, error) {
	if j.spec.Partition != nil {
		part := j.spec.Partition(k) % p
		if part < 0 {
			part += p
		}
		return part, nil
	}
	return h.StablePartition(k, p)
}

// outGroup is one reduced key's output, as serialized between a reduce
// worker and the driver's assembly pass.
type outGroup[K comparable, O any] struct {
	Key  K
	Outs []O
	Load int
}
