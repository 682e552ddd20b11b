package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mr"
	"repro/internal/obs"
)

// TestMain lets the test binary serve as the proc-mode worker, since
// workers re-execute the binary that drives them.
func TestMain(m *testing.M) {
	mr.MaybeProcWorker()
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke runs one workload end to end at its smoke size.
func smoke(t *testing.T, name string, trace bool) (result, string) {
	t.Helper()
	// run points TMPDIR at its scratch root; restore it for later tests.
	t.Setenv("TMPDIR", os.TempDir())
	out := t.TempDir()
	res, err := run(options{workload: name, seed: 7, seconds: 1, trace: trace, smoke: true, out: out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res, out
}

// TestSmoke runs every declared workload untraced and traced, checks
// that its jobs passed the oracle and left no scratch behind, that the
// result carries exactly the declared metrics with their units, and
// that the traced run wrote a valid merged trace.
func TestSmoke(t *testing.T) {
	decl := readDeclared(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	if len(decl.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the ledger has %d", len(decl.PerLayer), len(layerNames))
	}
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := smoke(t, w.Name, false)
			checkMetrics(t, res, decl.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			if left, _ := os.ReadDir(filepath.Join(out, "tmp")); len(left) > 0 {
				t.Errorf("scratch root not empty: %v", left)
			}

			res, out = smoke(t, w.Name, true)
			checkMetrics(t, res, decl.PerLayer)
			data, err := os.ReadFile(filepath.Join(out, "traces", w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateTrace(data); err != nil {
				t.Error(err)
			}
			checkLayers(t, w.Name, res.Metrics)
		})
	}
}

func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not reported", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, declared %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// checkLayers asserts which layers each workload exercises and which it
// bypasses.
func checkLayers(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	nonzero := func(names ...string) {
		for _, n := range names {
			if m[n].Value == 0 {
				t.Errorf("%s = 0 on %s", n, workload)
			}
		}
	}
	zeroPrefix := func(prefix string) {
		for n, v := range m {
			if strings.HasPrefix(n, prefix) && v.Value != 0 {
				t.Errorf("%s = %v on %s, want 0", n, v.Value, workload)
			}
		}
	}
	switch workload {
	case "hamming-spill":
		zeroPrefix("proc.")
		nonzero("problem.map_s", "engine.emit_calls", "shuffle.seal_s", "shuffle.spill_events",
			"shuffle.swap_bytes", "runfile.data_bytes", "runfile.read_bytes")
	case "triangles-mem":
		zeroPrefix("proc.")
		zeroPrefix("runfile.")
		nonzero("problem.reduce_s", "engine.reduce_phase_s", "engine.makespan_ratio")
	case "wordcount-proc":
		if v := m["shuffle.swap_bytes"].Value; v != 0 {
			t.Errorf("shuffle.swap_bytes = %v on %s, want 0", v, workload)
		}
		nonzero("proc.worker_task_s", "proc.worker_life_s", "proc.map_task_s", "runfile.data_bytes",
			"engine.reduce_ranges")
		if r := m["shuffle.combine_ratio"].Value; r <= 0 || r >= 1 {
			t.Errorf("shuffle.combine_ratio = %v, want in (0, 1)", r)
		}
	}
}

// TestOracleCatchesMismatch checks that each workload's oracle rejects
// a job whose outputs differ from what set-up predicted.
func TestOracleCatchesMismatch(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, _, err := w.prepare(7, true)
			if err != nil {
				t.Fatal(err)
			}
			switch in := inst.(type) {
			case *hammingSpill:
				in.digest++
			case *trianglesMem:
				in.triangles++
			case *wordcountProc:
				in.want[0].Count++
			default:
				t.Fatalf("no tampering for %T", inst)
			}
			var env jobEnv
			if w.spills {
				env.spillDir = t.TempDir()
			}
			if _, err := inst.run(env); err == nil {
				t.Fatal("tampered oracle accepted the job")
			}
		})
	}
}

// TestCheckClean checks that leftover scratch fails the job and is
// cleared for the next one.
func TestCheckClean(t *testing.T) {
	root := t.TempDir()
	if err := checkClean(root, ""); err != nil {
		t.Fatalf("empty root: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, "stale"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkClean(root, ""); err == nil {
		t.Fatal("leftover file not reported")
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Fatalf("root not cleared: %v", left)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", out: t.TempDir()}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
