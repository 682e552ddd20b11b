package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/obs"
)

// traceEvent is one Chrome trace event as obs.WriteTrace exports it.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"` // microseconds
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// span is one closed B/E pair of a trace, in microseconds.
type span struct {
	name       string
	pid, tid   int
	start, end float64
}

// spans pairs the B and E events of each lane. The trace has passed
// obs.ValidateTrace, so every lane balances.
func spans(evs []traceEvent) (out []span, instants map[string]int) {
	type lane struct{ pid, tid int }
	open := map[lane][]traceEvent{}
	instants = map[string]int{}
	for _, ev := range evs {
		ln := lane{ev.PID, ev.TID}
		switch ev.Ph {
		case "B":
			open[ln] = append(open[ln], ev)
		case "E":
			st := open[ln]
			b := st[len(st)-1]
			open[ln] = st[:len(st)-1]
			out = append(out, span{name: b.Name, pid: b.PID, tid: b.TID, start: b.TS, end: ev.TS})
		case "i":
			instants[ev.Name]++
		}
	}
	return out, instants
}

// seconds sums the durations of the named spans.
func seconds(ss []span, names ...string) float64 {
	var us float64
	for _, s := range ss {
		if slices.Contains(names, s.name) {
			us += s.end - s.start
		}
	}
	return us / 1e6
}

// firstStart is the earliest start of the named span, and false when
// there is none.
func firstStart(ss []span, name string) (float64, bool) {
	first, ok := 0.0, false
	for _, s := range ss {
		if s.name == name && (!ok || s.start < first) {
			first, ok = s.start, true
		}
	}
	return first, ok
}

// coveredSeconds sums, over lanes, the union of the named spans on
// each lane: the worker-seconds those spans account for.
func coveredSeconds(ss []span, names ...string) float64 {
	type lane struct{ pid, tid int }
	byLane := map[lane][]span{}
	for _, s := range ss {
		if slices.Contains(names, s.name) {
			ln := lane{s.pid, s.tid}
			byLane[ln] = append(byLane[ln], s)
		}
	}
	var us float64
	for _, l := range byLane {
		sort.Slice(l, func(i, j int) bool { return l[i].start < l[j].start })
		end := math.Inf(-1)
		for _, s := range l {
			if lo := max(s.start, end); s.end > lo {
				us += s.end - lo
			}
			end = max(end, s.end)
		}
	}
	return us / 1e6
}

// workerPIDBase offsets the trace processes of the i-th worker trace
// file (pid base*(i+1)+kind) so they cannot collide with the driver's
// lane kinds in the merged trace.
const workerPIDBase = 100

// mergedTrace exports the driver recorder and appends every worker
// trace file found in workerDir, each validated on its own and the
// whole validated again. Worker clocks start at worker spawn, so their
// timestamps are not aligned with the driver's.
func mergedTrace(rec *obs.Recorder, workerDir string) (merged []byte, driver, workers []traceEvent, err error) {
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec); err != nil {
		return nil, nil, nil, fmt.Errorf("exporting driver trace: %w", err)
	}
	driver, err = decodeTrace(buf.Bytes(), "driver trace")
	if err != nil {
		return nil, nil, nil, err
	}
	var files []string
	if workerDir != "" {
		if files, err = filepath.Glob(filepath.Join(workerDir, "trace-*.json")); err != nil {
			return nil, nil, nil, err
		}
		sort.Strings(files)
	}
	all := append([]traceEvent(nil), driver...)
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, nil, err
		}
		evs, err := decodeTrace(data, filepath.Base(f))
		if err != nil {
			return nil, nil, nil, err
		}
		prefix := filepath.Base(f)
		prefix = prefix[len("trace-") : len(prefix)-len(".json")]
		for _, ev := range evs {
			ev.PID += workerPIDBase * (i + 1)
			if ev.Name == "process_name" {
				ev.Args = map[string]any{"name": fmt.Sprintf("%s %v", prefix, ev.Args["name"])}
			}
			workers = append(workers, ev)
			all = append(all, ev)
		}
	}
	merged, err = json.Marshal(traceDoc{TraceEvents: all})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := obs.ValidateTrace(merged); err != nil {
		return nil, nil, nil, fmt.Errorf("merged trace: %w", err)
	}
	return merged, driver, workers, nil
}

func decodeTrace(data []byte, what string) ([]traceEvent, error) {
	if err := obs.ValidateTrace(data); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return doc.TraceEvents, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics is the per-layer ledger of one traced job, named as in
// BENCHMARK.json. Each layer is read from outside the program: the
// user-code clock, the driver and worker traces, and mr.Metrics.
func layerMetrics(s jobSample, clock *userClock, rec *obs.Recorder, driver, workerEvs []traceEvent, procMode bool) map[string]float64 {
	d, dInst := spans(driver)
	w, _ := spans(workerEvs)
	met := s.met
	f := func(n int64) float64 { return float64(n) }
	l := map[string]float64{
		"problem.map_s":    f(clock.mapNs.Load()) / 1e9,
		"problem.reduce_s": f(clock.reduceNs.Load()) / 1e9,

		"engine.emit_s":            f(clock.emitNs.Load()) / 1e9,
		"engine.emit_calls":        f(clock.emitCalls.Load()),
		"engine.map_phase_s":       seconds(d, "phase:map"),
		"engine.profile_phase_s":   seconds(d, "phase:profile"),
		"engine.reduce_phase_s":    seconds(d, "phase:reduce"),
		"engine.map_task_s":        seconds(d, "map-task"),
		"engine.reduce_task_s":     seconds(d, "reduce-task"),
		"engine.makespan_ratio":    ratio(f(met.Makespan), f(met.IdealMakespan)),
		"engine.partition_skew":    met.PartitionSkew(),
		"engine.reduce_ranges":     f(met.ReduceRanges),
		"engine.reduce_range_skew": met.ReduceRangeSkew,

		"shuffle.seal_s":           seconds(d, "seal"),
		"shuffle.fence_s":          seconds(d, "fence"),
		"shuffle.compact_s":        seconds(d, "compact"),
		"shuffle.merge_s":          seconds(d, "reduce-merge"),
		"shuffle.range_s":          seconds(d, "reduce-range"),
		"shuffle.overlap_s":        f(met.SpillOverlapNs) / 1e9,
		"shuffle.drain_s":          f(met.FinishDrainNs) / 1e9,
		"shuffle.block_flushes":    f(int64(dInst["block-flush"])),
		"shuffle.spill_events":     f(met.SpillEvents),
		"shuffle.spilled_pairs":    f(met.SpilledPairs),
		"shuffle.max_live_pairs":   f(int64(met.MaxLivePairs)),
		"shuffle.runs_merged":      f(met.RunsMerged),
		"shuffle.swap_bytes":       f(met.SwapBytes),
		"shuffle.reclaimed_bytes":  f(met.BytesReclaimed),
		"shuffle.disk_bytes":       f(met.BytesSpilled + met.IndexBytesSpilled + met.SwapBytes),
		"shuffle.swap_per_spilled": ratio(f(met.SwapBytes), f(met.BytesSpilled)),
		"shuffle.combine_ratio":    ratio(f(met.PairsShuffled), f(met.PairsEmitted)),

		"runfile.data_bytes":       f(met.BytesSpilled),
		"runfile.index_bytes":      f(met.IndexBytesSpilled),
		"runfile.index_ratio":      ratio(f(met.IndexBytesSpilled), f(met.BytesSpilled)),
		"runfile.read_bytes":       f(met.DiskBytesRead),
		"runfile.read_per_written": ratio(f(met.DiskBytesRead), f(met.BytesSpilled+met.IndexBytesSpilled)),

		"proc.map_task_s":        seconds(d, "proc-map-task"),
		"proc.reduce_task_s":     seconds(d, "proc-reduce-task"),
		"proc.worker_life_s":     seconds(d, "worker-life"),
		"proc.worker_task_s":     seconds(w, "proc-map-task", "proc-reduce-task"),
		"proc.worker_seal_s":     seconds(w, "seal"),
		"proc.worker_deaths":     f(met.WorkerDeaths),
		"proc.lease_expirations": f(met.LeaseExpirations),
		"proc.salvaged_tasks":    f(met.SalvagedTasks),

		"obs.dropped_events": f(rec.Dropped()),
	}
	l["proc.control_s"] = max(0, l["proc.map_task_s"]+l["proc.reduce_task_s"]-l["proc.worker_task_s"])
	if spawn, ok := firstStart(d, "worker-life"); ok {
		if grant, ok := firstStart(d, "proc-map-task"); ok {
			l["proc.spawn_s"] = (grant - spawn) / 1e6
		}
	}

	// Worker-seconds are the job's wall time on every worker; a worker
	// is attributed while a task span is open on its lane.
	var covered float64
	if procMode {
		l["proc.task_retries"] = f(met.TaskRetries)
		covered = coveredSeconds(w, "proc-map-task", "proc-reduce-task")
	} else {
		l["engine.retries"] = f(met.TaskRetries)
		covered = coveredSeconds(d, "map-task", "reduce-task")
	}
	l["ledger.unattributed_frac"] = max(0, 1-ratio(covered, s.wall*float64(workers())))
	return l
}

// layerNames lists every per-layer metric with its unit, in report
// order; BENCHMARK.json declares the same list.
var layerNames = []struct{ name, unit string }{
	{"problem.map_s", "s"}, {"problem.reduce_s", "s"},
	{"engine.emit_s", "s"}, {"engine.emit_calls", "count"},
	{"engine.map_phase_s", "s"}, {"engine.profile_phase_s", "s"}, {"engine.reduce_phase_s", "s"},
	{"engine.map_task_s", "s"}, {"engine.reduce_task_s", "s"},
	{"engine.makespan_ratio", "ratio"}, {"engine.partition_skew", "ratio"},
	{"engine.reduce_ranges", "count"}, {"engine.reduce_range_skew", "ratio"}, {"engine.retries", "count"},
	{"shuffle.seal_s", "s"}, {"shuffle.fence_s", "s"}, {"shuffle.compact_s", "s"}, {"shuffle.merge_s", "s"},
	{"shuffle.range_s", "s"}, {"shuffle.overlap_s", "s"}, {"shuffle.drain_s", "s"},
	{"shuffle.block_flushes", "count"}, {"shuffle.spill_events", "count"}, {"shuffle.spilled_pairs", "count"},
	{"shuffle.max_live_pairs", "count"}, {"shuffle.runs_merged", "count"},
	{"shuffle.swap_bytes", "B"}, {"shuffle.reclaimed_bytes", "B"}, {"shuffle.disk_bytes", "B"},
	{"shuffle.swap_per_spilled", "ratio"}, {"shuffle.combine_ratio", "ratio"},
	{"runfile.data_bytes", "B"}, {"runfile.index_bytes", "B"}, {"runfile.index_ratio", "ratio"},
	{"runfile.read_bytes", "B"}, {"runfile.read_per_written", "ratio"},
	{"proc.spawn_s", "s"}, {"proc.map_task_s", "s"}, {"proc.reduce_task_s", "s"}, {"proc.worker_life_s", "s"},
	{"proc.worker_task_s", "s"}, {"proc.worker_seal_s", "s"}, {"proc.control_s", "s"},
	{"proc.task_retries", "count"}, {"proc.worker_deaths", "count"}, {"proc.lease_expirations", "count"},
	{"proc.salvaged_tasks", "count"},
	{"obs.overhead_frac", "ratio"}, {"obs.dropped_events", "count"},
	{"go.alloc_bytes", "B"}, {"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
	{"ledger.unattributed_frac", "ratio"},
}
