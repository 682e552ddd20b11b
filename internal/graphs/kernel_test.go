package graphs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGraph is the reference model of New's contract: map dedupe and a
// sort for the edge list, per-node sorted lists for the adjacency, and
// brute-force enumeration of node triples for the triangles.
type refGraph struct {
	n     int
	edges []Edge
	adj   [][]int
	tris  [][3]int
}

func newRef(n int, raw []Edge) refGraph {
	r := refGraph{n: n, adj: make([][]int, n)}
	seen := make(map[Edge]bool)
	for _, e := range raw {
		e = NewEdge(e.U, e.V)
		if e.U == e.V || e.U < 0 || e.V >= n || seen[e] {
			continue
		}
		seen[e] = true
		r.edges = append(r.edges, e)
		r.adj[e.U] = append(r.adj[e.U], e.V)
		r.adj[e.V] = append(r.adj[e.V], e.U)
	}
	sort.Slice(r.edges, func(i, j int) bool {
		a, b := r.edges[i], r.edges[j]
		return a.U < b.U || a.U == b.U && a.V < b.V
	})
	for _, l := range r.adj {
		sort.Ints(l)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if seen[Edge{u, v}] && seen[Edge{v, w}] && seen[Edge{u, w}] {
					r.tris = append(r.tris, [3]int{u, v, w})
				}
			}
		}
	}
	return r
}

// checkKernel compares every kernel surface of New(n, raw) with the
// reference.
func checkKernel(t *testing.T, name string, n int, raw []Edge) {
	t.Helper()
	ref := newRef(n, raw)
	g := New(n, raw)
	if !slices.Equal(g.Edges, ref.edges) {
		t.Fatalf("%s: Edges = %v, want %v", name, g.Edges, ref.edges)
	}
	for u := 0; u < n; u++ {
		if got := g.Adj(u); !slices.Equal(got, ref.adj[u]) {
			t.Fatalf("%s: Adj(%d) = %v, want %v", name, u, got, ref.adj[u])
		}
		if g.Degree(u) != len(ref.adj[u]) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", name, u, g.Degree(u), len(ref.adj[u]))
		}
		for v := 0; v < n; v++ {
			if want := slices.Contains(ref.adj[u], v); g.HasEdge(u, v) != want {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, want %v", name, u, v, !want, want)
			}
		}
	}
	if got := g.Triangles(); !slices.Equal(got, ref.tris) {
		t.Fatalf("%s: Triangles = %v, want %v", name, got, ref.tris)
	}
	if got := g.TriangleCount(); got != int64(len(ref.tris)) {
		t.Fatalf("%s: TriangleCount = %d, want %d", name, got, len(ref.tris))
	}
	var seq [][3]int
	g.ForEachTriangle(func(u, v, w int) { seq = append(seq, [3]int{u, v, w}) })
	if !slices.Equal(seq, ref.tris) {
		t.Fatalf("%s: ForEachTriangle sequence = %v, want %v", name, seq, ref.tris)
	}
	// Appending to one node's list must never reach the next node's.
	for u := 0; u+1 < n; u++ {
		next := slices.Clone(g.Adj(u + 1))
		_ = append(g.Adj(u), -1)
		if !slices.Equal(g.Adj(u+1), next) {
			t.Fatalf("%s: append to Adj(%d) overwrote Adj(%d): %v, was %v", name, u, u+1, g.Adj(u+1), next)
		}
	}
}

// randomEdges draws an edge list with duplicates, reversed pairs, loops
// and out-of-range endpoints; with lowIDs the endpoints stay in the
// lower half so the high-id nodes are isolated.
func randomEdges(rng *rand.Rand, n, m int, lowIDs bool) []Edge {
	span := n
	if lowIDs {
		span = max(n/2, 1)
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		switch rng.Intn(8) {
		case 0: // out of range on either side
			edges = append(edges, Edge{rng.Intn(n+4) - 2, n + rng.Intn(3)})
		case 1: // loop
			u := rng.Intn(span)
			edges = append(edges, Edge{u, u})
		case 2: // duplicate, possibly reversed
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				edges = append(edges, e)
			}
		default:
			edges = append(edges, Edge{rng.Intn(span), rng.Intn(span)})
		}
	}
	return edges
}

// TestGraphKernelMatchesReference checks New, Adj, Triangles,
// TriangleCount and ForEachTriangle against the reference on random
// and structured graphs.
func TestGraphKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(n * n)
		checkKernel(t, fmt.Sprintf("random#%d(n=%d,m=%d)", i, n, m), n, randomEdges(rng, n, m, i%3 == 0))
	}
	for n := 0; n <= 9; n++ {
		checkKernel(t, fmt.Sprintf("K%d", n), n, Complete(n).Edges)
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		checkKernel(t, fmt.Sprintf("C%d", n), n, Cycle(n).Edges)
		star := Star(n).Edges
		checkKernel(t, fmt.Sprintf("star%d(hub 0)", n), n, star)
		last := make([]Edge, len(star))
		for i, e := range star {
			last[i] = Edge{n - 1 - e.U, n - 1 - e.V}
		}
		checkKernel(t, fmt.Sprintf("star%d(hub %d)", n, n-1), n, last)
	}
	// A hub joined to a path: every triangle shares node 0 or n-1.
	for _, hub := range []int{0, 11} {
		var edges []Edge
		for i := 0; i < 12; i++ {
			if i != hub {
				edges = append(edges, Edge{hub, i})
			}
			if i+1 < 12 {
				edges = append(edges, Edge{i, i + 1})
			}
		}
		checkKernel(t, fmt.Sprintf("fan(hub %d)", hub), 12, edges)
	}
}

// FuzzGraphKernel runs the reference comparison on arbitrary edge
// lists: the first byte picks n, each later byte pair an edge whose
// endpoints may fall up to two outside 0..n-1.
func FuzzGraphKernel(f *testing.F) {
	f.Add([]byte{4, 2, 3, 3, 4, 2, 4, 3, 2})
	f.Add([]byte{10, 0, 1, 1, 2, 0, 2, 2, 2, 0, 13, 5, 6, 6, 7, 7, 5})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 48
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{int(data[i])%(n+4) - 2, int(data[i+1])%(n+4) - 2})
		}
		checkKernel(t, "fuzz", n, edges)
	})
}
