package mr

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
	"time"
)

// splitKey is a Hamming-1 Splitting reducer key: the removed segment
// and the bits that remain. Both fields run past one digit, so the
// compiled field order ({9 0} before {10 0}) and the formatted order
// ("{10 0}" before "{9 0}") disagree on it.
type splitKey struct {
	Group int
	Rest  uint64
}

const splitBits = 11 // groups 0..10, rests up to 1023

// procSplitting is Hamming-1 Splitting with one-bit segments over
// every 11-bit string: each reducer counts the distance-1 pairs among
// the strings that agree outside one bit.
var procSplitting = &Job[uint64, splitKey, uint64, string]{
	Name: "mr-proc-splitting",
	Map: func(x uint64, emit func(splitKey, uint64)) {
		for g := 0; g < splitBits; g++ {
			low := x & (1<<g - 1)
			emit(splitKey{g, x>>(g+1)<<g | low}, x)
		}
	},
	// A batch reduce: struct keys read spilled values through the
	// reused decode scratch.
	ReduceBatch: func(k splitKey, xs []uint64, emit func(string)) {
		pairs := 0
		for i := range xs {
			for j := i + 1; j < len(xs); j++ {
				if bits.OnesCount64(xs[i]^xs[j]) == 1 {
					pairs++
				}
			}
		}
		emit(fmt.Sprintf("%d/%d:%d", k.Group, k.Rest, pairs))
	},
}

// TestStructKeyOrderAcrossModes: a struct key with multi-digit fields
// reduces in field order, and the output is byte-identical in memory,
// spilled far past the budget, range-split and across worker
// processes.
func TestStructKeyOrderAcrossModes(t *testing.T) {
	inputs := make([]uint64, 1<<splitBits)
	for i := range inputs {
		// A fixed permutation, so emission order differs from key order.
		inputs[i] = uint64(i*1237) % (1 << splitBits)
	}
	run := func(name string, cfg Config) []string {
		t.Helper()
		j := *procSplitting
		j.Config = cfg
		outs, met, err := j.Run(inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "spill" && met.BytesSpilled == 0 {
			t.Fatalf("%s: nothing spilled", name)
		}
		if name == "range-split" && met.ReduceRanges == 0 {
			t.Fatalf("%s: no reduce range was split", name)
		}
		return outs
	}
	want := run("in-memory", Config{Workers: 2})

	// Field order: groups ascending numerically, rests ascending within
	// a group, every reducer once.
	if len(want) != splitBits<<(splitBits-1) {
		t.Fatalf("%d outputs, want %d", len(want), splitBits<<(splitBits-1))
	}
	for i, o := range want {
		var g, rest, pairs int
		if _, err := fmt.Sscanf(o, "%d/%d:%d", &g, &rest, &pairs); err != nil {
			t.Fatalf("output %d = %q: %v", i, o, err)
		}
		if g != i>>(splitBits-1) || rest != i&(1<<(splitBits-1)-1) || pairs != 1 {
			t.Fatalf("output %d = %q, want group %d rest %d with one pair", i, o, i>>(splitBits-1), i&(1<<(splitBits-1)-1))
		}
	}

	pairs := splitBits << splitBits
	for _, m := range []struct {
		name string
		cfg  Config
	}{
		{"spill", Config{Workers: 2, Partitions: 4, MemoryBudget: pairs / 256, SpillDir: t.TempDir()}},
		{"range-split", Config{Workers: 2, Partitions: 2, MemoryBudget: pairs / 256, SpillDir: t.TempDir(),
			ReduceSplitPairs: 512, ReduceRangeConcurrency: 3}},
		{"proc", Config{Workers: 2, Partitions: 4, MemoryBudget: pairs / 64, ProcMode: true,
			ProcTimeout: 90 * time.Second}},
	} {
		if got := run(m.name, m.cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: output diverges from the in-memory run", m.name)
		}
	}
}
