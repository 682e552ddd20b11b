package shuffle

import (
	"fmt"
	"testing"
)

// FuzzPlanRangesFromCounts checks the range planner over arbitrary
// (key, count) profiles of struct keys drawn from a tiny alphabet.
// Their interface fields keep them on the formatted fallback, so
// distinct keys often format alike and share an order-equivalence
// class. Whatever it plans must be ordered and disjoint, cover every
// key exactly once, never split a class, respect the range cap and the
// profile's totals, and Clamp must agree with Contains.
func FuzzPlanRangesFromCounts(f *testing.F) {
	f.Add([]byte("a b c a b c z"), int64(3), uint8(4))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(1), uint8(2))
	f.Add([]byte("  aa bb  ab ba"), int64(7), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, target int64, maxRanges uint8) {
		type k2 struct{ A, B any }
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
		for j := 1; j < len(keys); j++ {
			if fmt.Sprint(keys[j-1]) != fmt.Sprint(keys[j]) {
				continue
			}
			for ri, r := range ranges {
				if r.Contains(keys[j-1]) != r.Contains(keys[j]) {
					t.Fatalf("range %d splits the class of %v and %v", ri, keys[j-1], keys[j])
				}
			}
		}
	})
}
