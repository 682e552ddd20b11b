package mr

import (
	"math"
	"strings"
	"testing"
	"time"
)

// nanKey is a composite reducer key with a float field.
type nanKey struct {
	F float64
	I int
}

// procNaNKey emits one NaN-bearing key among ordinary ones.
var procNaNKey = &Job[int, nanKey, int, int]{
	Name: "mr-proc-nan-key",
	Map: func(x int, emit func(nanKey, int)) {
		f := float64(x % 5)
		if x == 37 {
			f = math.NaN()
		}
		emit(nanKey{F: f, I: 1}, x)
	},
	Reduce: func(_ nanKey, xs []int, emit func(int)) { emit(len(xs)) },
}

// TestNaNKeyFailsTheJob: a key holding a NaN never equals itself, so it
// cannot group; every mode must fail the job rather than return short
// output.
func TestNaNKeyFailsTheJob(t *testing.T) {
	inputs := make([]int, 400)
	for i := range inputs {
		inputs[i] = i
	}
	for _, m := range []struct {
		name string
		cfg  Config
	}{
		{"in-memory", Config{Workers: 2, Partitions: 4}},
		{"spill", Config{Workers: 2, Partitions: 4, MemoryBudget: 8, SpillDir: t.TempDir()}},
		{"proc", Config{Workers: 2, Partitions: 4, MemoryBudget: 16, ProcMode: true,
			ProcTimeout: 90 * time.Second}},
	} {
		j := *procNaNKey
		j.Config = m.cfg
		outs, _, err := j.Run(inputs)
		if err == nil {
			t.Errorf("%s: no error; %d outputs", m.name, len(outs))
			continue
		}
		if !strings.Contains(err.Error(), "NaN") || !strings.Contains(err.Error(), "map task") {
			t.Errorf("%s: error %q does not name the NaN key and its task", m.name, err)
		}
	}
}
