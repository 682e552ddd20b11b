package mr

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// BenchmarkStreamingTrace1M runs a ~1M-pair word count through the
// map-side data plane with the recorder armed and proves the overlap
// is real: the exported timeline must show map-task spans overlapping
// the seal spans their task writers record (worker lanes) and the
// background compactions (compactor lanes) — the span-level view of
// the SpillOverlapNs the metrics report. With MRTRACE_OUT set, the last round's trace is
// written there as Chrome trace-event JSON (scripts/bench.sh sets it
// to BENCH_trace_streaming.json and CI uploads the artifact).
func BenchmarkStreamingTrace1M(b *testing.B) {
	docs := benchDocs(52429) // 20 words each: ~1.05M emitted pairs
	cfg := Config{
		Workers:      8,
		Partitions:   8,
		MemoryBudget: 1024,
		SpillDir:     b.TempDir(),
	}
	b.ReportAllocs()
	var rec *obs.Recorder
	var overlapMs, spillOverlapMs float64
	for i := 0; i < b.N; i++ {
		rec = obs.NewRecorder(1 << 15)
		cfg.Recorder = rec
		_, met, err := wordCountJob(cfg).Run(docs)
		if err != nil {
			b.Fatal(err)
		}
		if met.SpillEvents == 0 {
			b.Fatal("1M-pair run never spilled")
		}

		snap := rec.Snapshot()
		mapSpans := obs.SpanIntervals(snap, obs.OpMapTask)
		spillSpans := obs.SpanIntervals(snap, obs.OpSeal, obs.OpCompact)
		overlap := obs.OverlapNs(mapSpans, spillSpans)
		if overlap == 0 {
			b.Fatal("trace shows no map-task/spill overlap: sealing serialized behind mapping")
		}
		if met.SpillOverlapNs == 0 {
			b.Fatal("Metrics.SpillOverlapNs = 0 despite overlapping trace spans")
		}
		overlapMs = float64(overlap) / 1e6
		spillOverlapMs = float64(met.SpillOverlapNs) / 1e6
	}
	b.ReportMetric(overlapMs, "trace-overlap-ms")
	b.ReportMetric(spillOverlapMs, "spill-overlap-ms")
	b.ReportMetric(float64(rec.Dropped()), "dropped-events")

	if out := os.Getenv("MRTRACE_OUT"); out != "" {
		f, err := os.Create(out)
		if err != nil {
			b.Fatal(err)
		}
		if err := obs.WriteTrace(f, rec); err != nil {
			f.Close()
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			b.Fatal(err)
		}
		if err := obs.ValidateTrace(data); err != nil {
			b.Fatalf("exported trace invalid: %v", err)
		}
		if !strings.Contains(string(data), "map-task") {
			b.Fatal("exported trace has no map-task spans")
		}
		b.Logf("trace written to %s", out)
	}
}
