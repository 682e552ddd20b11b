// Command perfbench is the repository's end-to-end benchmark: it runs
// one paper-family workload through the public mr.Job API in a closed
// loop (one job at a time, the next starting when the previous one
// returns), checks every job's outputs against a serial oracle, and
// prints the metrics BENCHMARK.json declares.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hamming-spill --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced jobs;
// with --trace 1 it alternates untraced and traced jobs and reports the
// per-layer ledger of the traced ones. Every layer is measured from
// outside the runtime: timers around the workload's own map, reduce and
// emit, the obs recorder armed through mr.Config, the per-worker traces
// proc-mode workers write when MR_PROC_TRACE is set, and mr.Metrics.
//
// The last line of standard output is the result as one JSON object.
// Results stamped with the host, the merged Perfetto trace of the last
// traced job, and the benchmark's scratch space live under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool   // seconds-long input sizes, for the tests
	out      string // results, traces and the jobs' scratch root
	commit   string // source revision, for the host stamp
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a full-size end-to-end run sets its
// workload up; setup_s is the median.
const setupRuns = 3

func main() {
	mr.MaybeProcWorker() // a re-executed worker process never returns

	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of jobs to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer ledger of traced jobs, 0 the end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for results, traces and job scratch")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision to stamp into results")
	flag.Parse()
	o.trace = trace == 1

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state: the workload, its scratch root and the
// jobs measured so far.
type bench struct {
	wl      workload
	scratch string // every job's spill and proc directories live here
	traces  string
	jobs    int // jobs started, for unique spill directory names
}

// run sets the workload up, measures it for o.seconds and returns the
// result. Job failures are counted in the result; an error means the
// benchmark itself could not run.
func run(o options, log io.Writer) (result, error) {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	b := &bench{wl: wl,
		scratch: filepath.Join(o.out, "tmp"),
		traces:  filepath.Join(o.out, "traces"),
	}
	if err := resetDir(b.scratch); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(b.traces, 0o755); err != nil {
		return result{}, err
	}
	// Proc mode places its job and socket directories under TMPDIR, so
	// this puts them under the benchmark's scratch root too.
	if err := os.Setenv("TMPDIR", b.scratch); err != nil {
		return result{}, err
	}

	runs := setupRuns
	if o.trace || o.smoke {
		runs = 1
	}
	var inst instance
	var size string
	var setups []float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		if inst, size, err = wl.prepare(o.seed, o.smoke); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if _, _, err := b.job(inst, false); err != nil {
			return result{}, fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	stamp := newHostStamp(o, size)
	if line, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(log, "host %s\n", line)
	}

	var plain, traced []jobSample
	var layers []map[string]float64
	var lastTrace []byte
	res := result{Correct: true}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for res.Attempted == 0 || time.Now().Before(deadline) || (o.trace && len(traced) == 0 && res.Failed == 0) {
		withTrace := o.trace && len(plain) > len(traced)
		res.Attempted++
		s, l, err := b.job(inst, withTrace)
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(log, "job %d failed: %v\n", res.Attempted, err)
			continue
		}
		if withTrace {
			traced = append(traced, s)
			layers = append(layers, l.metrics)
			lastTrace = l.trace
		} else {
			plain = append(plain, s)
		}
	}

	if o.trace {
		res.Metrics = perLayer(plain, traced, layers)
		if lastTrace != nil {
			if err := os.WriteFile(filepath.Join(b.traces, wl.name+".json"), lastTrace, 0o644); err != nil {
				return result{}, err
			}
		}
	} else {
		res.Metrics = endToEnd(setups, plain)
	}
	fmt.Fprintf(log, "%s seed=%d %s: %d jobs (%d traced), %d failed\n",
		wl.name, o.seed, size, res.Attempted, len(traced), res.Failed)
	return res, writeResult(filepath.Join(o.out, "results"), stamp, res, setups, plain)
}

// traceLedger is what a traced job adds: its merged trace and ledger.
type traceLedger struct {
	trace   []byte
	metrics map[string]float64
}

// job runs one job of inst and checks that it left its scratch space
// clean and no worker behind. A traced job also arms the recorder, the
// user-code clock and the proc workers' traces, and returns its ledger.
func (b *bench) job(inst instance, traced bool) (jobSample, traceLedger, error) {
	b.jobs++
	var env jobEnv
	if b.wl.spills {
		env.spillDir = filepath.Join(b.scratch, fmt.Sprintf("job-%d", b.jobs))
		if err := os.Mkdir(env.spillDir, 0o755); err != nil {
			return jobSample{}, traceLedger{}, err
		}
	}
	workerDir := ""
	if traced {
		env.rec = obs.NewRecorder(0) // obs.dropped_events reports a full lane
		env.clock = &userClock{}
		if b.wl.procMode {
			workerDir = filepath.Join(b.traces, "workers")
			if err := resetDir(workerDir); err != nil {
				return jobSample{}, traceLedger{}, err
			}
			// Workers inherit the driver's environment.
			if err := os.Setenv("MR_PROC_TRACE", workerDir); err != nil {
				return jobSample{}, traceLedger{}, err
			}
			defer os.Unsetenv("MR_PROC_TRACE")
		}
	}
	s, err := inst.run(env)
	if cerr := checkClean(b.scratch, env.spillDir); cerr != nil {
		err = errors.Join(err, fmt.Errorf("scratch: %w", cerr))
	}
	if err != nil || !traced {
		return s, traceLedger{}, err
	}
	merged, driver, workerEvs, err := mergedTrace(env.rec, workerDir)
	if err != nil {
		return s, traceLedger{}, err
	}
	if workerDir != "" {
		if err := os.RemoveAll(workerDir); err != nil {
			return s, traceLedger{}, err
		}
	}
	return s, traceLedger{trace: merged,
		metrics: layerMetrics(s, env.clock, env.rec, driver, workerEvs, b.wl.procMode)}, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// field extracts one number from every sample.
func field(ss []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// endToEnd is the metrics a user of the runtime sees, over untraced jobs.
func endToEnd(setups []float64, ss []jobSample) map[string]metric {
	jobS := median(field(ss, func(s jobSample) float64 { return s.wall }))
	var peakResident float64
	for _, s := range ss {
		peakResident = max(peakResident, float64(s.met.PeakResidentPairs))
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"job_s":               {jobS, "s"},
		"pairs_per_s":         {ratio(median(field(ss, func(s jobSample) float64 { return float64(s.met.PairsEmitted) })), jobS), "1/s"},
		"cpu_s":               {median(field(ss, func(s jobSample) float64 { return s.cpu })), "s"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"peak_resident_pairs": {peakResident, "count"},
		"comm_pairs":          {median(field(ss, func(s jobSample) float64 { return float64(s.met.PairsShuffled) })), "count"},
	}
}

// perLayer is the median ledger of the traced jobs, plus what needs the
// untraced jobs too: the tracing overhead and the Go runtime counters,
// which are read on untraced jobs so the recorder does not perturb them.
func perLayer(plain, traced []jobSample, layers []map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerNames))
	for _, n := range layerNames {
		vals := make([]float64, len(layers))
		for i, l := range layers {
			vals[i] = l[n.name]
		}
		out[n.name] = metric{median(vals), n.unit}
	}
	wall := func(s jobSample) float64 { return s.wall }
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	set("obs.overhead_frac", ratio(median(field(traced, wall)), median(field(plain, wall)))-1)
	set("go.alloc_bytes", median(field(plain, func(s jobSample) float64 { return float64(s.alloc) })))
	set("go.gc_cycles", median(field(plain, func(s jobSample) float64 { return float64(s.gcCycles) })))
	set("go.gc_pause_s", median(field(plain, func(s jobSample) float64 { return s.gcPause })))
	return out
}

// writeResult stores the result with its host stamp and the times of
// every set-up and untraced job, one file per workload, seed and mode.
func writeResult(dir string, stamp hostStamp, res result, setups []float64, plain []jobSample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host   hostStamp `json:"host"`
		Result result    `json:"result"`
		SetupS []float64 `json:"setup_s"`
		JobS   []float64 `json:"job_s"`
		CPUS   []float64 `json:"cpu_s"`
	}{stamp, res, setups,
		field(plain, func(s jobSample) float64 { return s.wall }),
		field(plain, func(s jobSample) float64 { return s.cpu }),
	}, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if stamp.Trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", stamp.Workload, stamp.Seed, mode)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
