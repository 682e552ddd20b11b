package mr

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ptrKey holds a pointer, so it has no canonical order.
type ptrKey struct{ P *int }

var procPtrKey = &Job[int, ptrKey, int, int]{
	Name: "mr-proc-ptr-key",
	Map: func(x int, emit func(ptrKey, int)) {
		emit(ptrKey{&x}, x)
	},
	Reduce: func(_ ptrKey, xs []int, emit func(int)) { emit(len(xs)) },
}

// TestUnorderedKeyTypeRefused: a key type with no canonical order is
// refused before any work starts, in every mode, by an error that names
// the type. The spill run leaves its spill dir empty; the proc run
// writes nothing to its scratch dir and spawns no worker (the worker
// command would leave a marker file).
func TestUnorderedKeyTypeRefused(t *testing.T) {
	inputs := []int{1, 2, 3}
	spillDir, procDir := t.TempDir(), t.TempDir()
	marker := filepath.Join(t.TempDir(), "spawned")
	for _, m := range []struct {
		name string
		cfg  Config
	}{
		{"in-memory", Config{Workers: 2}},
		{"spill", Config{Workers: 2, MemoryBudget: 1, SpillDir: spillDir}},
		{"proc", Config{Workers: 2, ProcMode: true, ProcDir: procDir,
			ProcWorkerCommand: []string{"sh", "-c", "touch " + marker}}},
	} {
		j := *procPtrKey
		j.Config = m.cfg
		outs, _, err := j.Run(inputs)
		if err == nil || !strings.Contains(err.Error(), "mr.ptrKey") {
			t.Errorf("%s: Run = %d outputs, error %v; want an error naming mr.ptrKey", m.name, len(outs), err)
		}
	}
	for _, dir := range []string{spillDir, procDir} {
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("%s: %d entries (err %v), want an empty dir", dir, len(ents), err)
		}
	}
	if _, err := os.Stat(marker); err == nil {
		t.Error("proc: a worker was spawned")
	}
}
