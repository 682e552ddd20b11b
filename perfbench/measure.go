package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mr"
)

// snapshot is the process state a job is measured between: wall clock,
// CPU of this process and of its reaped children (proc-mode workers),
// and the Go heap counters of this process.
type snapshot struct {
	at        time.Time
	self, kid syscall.Rusage
	mem       runtime.MemStats
}

func takeSnapshot() snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	// Getrusage cannot fail for these two well-formed arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &s.kid)
	s.at = time.Now()
	return s
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// jobSample is what one job measured.
type jobSample struct {
	wall     float64 // seconds from Run to returned outputs
	cpu      float64 // user+sys seconds of driver and workers
	alloc    uint64  // driver heap bytes allocated
	gcCycles uint32
	gcPause  float64 // seconds
	met      mr.Metrics
}

// measure runs one job between two snapshots. Workers of a proc-mode
// job are reaped before Run returns, so their CPU lands in the
// children's rusage delta.
func measure[O any](run func() ([]O, mr.Metrics, error)) ([]O, jobSample, error) {
	// Each job starts from a collected heap, so the garbage of the
	// previous job is not charged to this one.
	runtime.GC()
	before := takeSnapshot()
	outs, met, err := run()
	after := takeSnapshot()
	return outs, jobSample{
		wall: after.at.Sub(before.at).Seconds(),
		cpu: cpuSeconds(after.self) - cpuSeconds(before.self) +
			cpuSeconds(after.kid) - cpuSeconds(before.kid),
		alloc:    after.mem.TotalAlloc - before.mem.TotalAlloc,
		gcCycles: after.mem.NumGC - before.mem.NumGC,
		gcPause:  float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e9,
		met:      met,
	}, err
}

// peakRSSMB is the largest resident set of this process and of any
// reaped child over the whole run, in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var self, kid syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kid)
	return float64(max(self.Maxrss, kid.Maxrss)) / 1024
}

// userClock times the workload's own map and reduce functions and the
// emit callback the runtime hands to map. It only sees code that runs
// in this process: in proc mode the user code runs in the workers.
type userClock struct {
	mapNs, emitNs, emitCalls, reduceNs atomic.Int64
}

// timedMap wraps f so the clock records map self time (minus emit),
// time inside emit and the emit count. A nil clock returns f unchanged.
func timedMap[I any, K comparable, V any](c *userClock, f mr.MapFunc[I, K, V]) mr.MapFunc[I, K, V] {
	if c == nil {
		return f
	}
	return func(in I, emit func(K, V)) {
		start := time.Now()
		var emitNs, calls int64
		f(in, func(k K, v V) {
			t := time.Now()
			emit(k, v)
			emitNs += int64(time.Since(t))
			calls++
		})
		c.mapNs.Add(int64(time.Since(start)) - emitNs)
		c.emitNs.Add(emitNs)
		c.emitCalls.Add(calls)
	}
}

// timedReduce wraps f so the clock records reduce time, including the
// reducer's own output emits. A nil clock returns f unchanged.
func timedReduce[K comparable, V, O any](c *userClock, f mr.ReduceFunc[K, V, O]) mr.ReduceFunc[K, V, O] {
	if c == nil {
		return f
	}
	return func(k K, vs []V, emit func(O)) {
		start := time.Now()
		f(k, vs, emit)
		c.reduceNs.Add(int64(time.Since(start)))
	}
}

// checkClean asserts a job left nothing behind: its spill directory is
// empty (and is removed here), the scratch root holds nothing else, and
// no child process survives. On a violation it clears the root so the
// next job starts clean.
func checkClean(root, spillDir string) error {
	err := func() error {
		if spillDir != "" {
			left, err := os.ReadDir(spillDir)
			if err != nil {
				return fmt.Errorf("reading spill dir: %w", err)
			}
			if len(left) > 0 {
				return fmt.Errorf("spill dir holds %d leftover entries, first %s", len(left), left[0].Name())
			}
			if err := os.Remove(spillDir); err != nil {
				return fmt.Errorf("removing spill dir: %w", err)
			}
		}
		left, err := os.ReadDir(root)
		if err != nil {
			return fmt.Errorf("reading scratch root: %w", err)
		}
		if len(left) > 0 {
			return fmt.Errorf("scratch root holds %d leftover entries, first %s", len(left), left[0].Name())
		}
		return nil
	}()
	if err != nil {
		_ = os.RemoveAll(root)
		_ = os.MkdirAll(root, 0o755)
	}
	if kerr := checkNoChildren(); kerr != nil {
		return errors.Join(err, kerr)
	}
	return err
}

// checkNoChildren reports a child process that outlived its job. This
// process starts no children of its own, so any child is a proc-mode
// worker the runtime failed to reap.
func checkNoChildren() error {
	var ws syscall.WaitStatus
	pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
	if errors.Is(err, syscall.ECHILD) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("probing for surviving workers: %w", err)
	}
	if pid > 0 {
		return fmt.Errorf("worker process %d was left unreaped", pid)
	}
	return errors.New("a worker process survived its job")
}

// hostStamp records where and how a result was measured.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Size       string `json:"size"`
}

func newHostStamp(o options, size string) hostStamp {
	return hostStamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     o.commit,
		Size:       size,
	}
}

// workers is the job parallelism: one worker (goroutine or process) per
// CPU.
func workers() int { return runtime.NumCPU() }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetDir empties dir, creating it if needed.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(filepath.Clean(dir), 0o755)
}
