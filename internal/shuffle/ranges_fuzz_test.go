package shuffle

import (
	"math/rand/v2"
	"testing"
)

// FuzzPlanRangesFromCounts checks the range planner and Clamp over
// arbitrary (key, count) profiles of struct keys drawn from a tiny
// alphabet, so distinct keys often format alike ({"a b", "c"} and
// {"a", "b c"} both print as {a b c}) yet each is its own group. The
// plan must be ordered and disjoint, cover every key exactly once,
// respect the range cap and the profile's totals, and Clamp must agree
// with Contains. The keys are then dealt into 2–3 sorted runs, each key
// into a random nonempty subset of them: every run's Clamp windows must
// tile the run, and the union of a range's windows across the runs
// must be exactly the range's keys, so no key straddles a cut.
func FuzzPlanRangesFromCounts(f *testing.F) {
	f.Add([]byte("a b c a b c z"), int64(3), uint8(4), uint64(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(1), uint8(2), uint64(1))
	f.Add([]byte("  aa bb  ab ba"), int64(7), uint8(8), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, target int64, maxRanges uint8, split uint64) {
		type k2 struct{ A, B string }
		alphabet := []string{"", "a", "b", "a b", "b c", "c"}
		counts := make(map[k2]int64)
		for i := 0; i+1 < len(data); i += 2 {
			k := k2{alphabet[int(data[i])%len(alphabet)], alphabet[int(data[i+1]>>4)%len(alphabet)]}
			counts[k] += 1 + int64(data[i+1]&0x0f)
		}
		keys := make([]k2, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		SortKeys(keys)
		loads := make([]int64, len(keys))
		var total int64
		for i, k := range keys {
			loads[i] = counts[k]
			total += loads[i]
		}

		ranges := PlanRangesFromCounts(keys, loads, target, int(maxRanges))
		if ranges == nil {
			return
		}
		if len(ranges) < 2 || len(ranges) > int(maxRanges) {
			t.Fatalf("%d ranges planned, cap %d", len(ranges), maxRanges)
		}
		if ranges[0].HasLo || ranges[len(ranges)-1].HasHi {
			t.Fatal("outer ranges must be open-ended")
		}
		var pairs, nKeys int64
		prevHi := 0
		for ri, r := range ranges {
			pairs += r.Pairs
			nKeys += r.Keys
			lo, hi := r.Clamp(keys)
			if lo != prevHi || hi <= lo {
				t.Fatalf("range %d window [%d,%d) does not continue the tiling at %d", ri, lo, hi, prevHi)
			}
			prevHi = hi
			var rp int64
			for j, k := range keys {
				if in := lo <= j && j < hi; in != r.Contains(k) {
					t.Fatalf("range %d: Clamp says %v for key %d (%v), Contains says %v", ri, in, j, k, !in)
				}
				if lo <= j && j < hi {
					rp += loads[j]
				}
			}
			if rp != r.Pairs || int64(hi-lo) != r.Keys {
				t.Fatalf("range %d planned %d pairs / %d keys, window holds %d / %d", ri, r.Pairs, r.Keys, rp, hi-lo)
			}
		}
		if prevHi != len(keys) || pairs != total || nKeys != int64(len(keys)) {
			t.Fatalf("ranges cover %d of %d keys, %d of %d pairs", prevHi, len(keys), pairs, total)
		}

		// Deal the keys into sorted runs; every key lands in at least one.
		rng := rand.New(rand.NewPCG(split, 0))
		runs := make([][]k2, 2+split%2)
		for _, k := range keys {
			mask := 1 + rng.IntN(1<<len(runs)-1)
			for r := range runs {
				if mask&(1<<r) != 0 {
					runs[r] = append(runs[r], k)
				}
			}
		}
		windows := make([]map[k2]bool, len(ranges))
		for ri := range windows {
			windows[ri] = make(map[k2]bool)
		}
		for r, run := range runs {
			prevHi := 0
			for ri, kr := range ranges {
				lo, hi := kr.Clamp(run)
				if lo != prevHi || hi < lo {
					t.Fatalf("run %d: range %d window [%d,%d) does not continue the tiling at %d", r, ri, lo, hi, prevHi)
				}
				prevHi = hi
				for _, k := range run[lo:hi] {
					windows[ri][k] = true
				}
			}
			if prevHi != len(run) {
				t.Fatalf("run %d: windows cover %d of %d keys", r, prevHi, len(run))
			}
		}
		for ri, r := range ranges {
			lo, hi := r.Clamp(keys)
			if len(windows[ri]) != hi-lo {
				t.Fatalf("range %d: runs' windows hold %d distinct keys, range has %d", ri, len(windows[ri]), hi-lo)
			}
			for _, k := range keys[lo:hi] {
				if !windows[ri][k] {
					t.Fatalf("range %d: key %v is in no run's window", ri, k)
				}
			}
		}
	})
}
