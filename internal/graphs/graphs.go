// Package graphs provides the undirected-graph substrate for the
// triangle-finding (Section 4) and sample-graph (Section 5) problems:
// graph construction, standard generators, and serial baseline counters
// against which the MapReduce algorithms are verified.
package graphs

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// NewEdge normalizes an endpoint pair into an Edge.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Graph is a simple undirected graph on nodes 0..N-1.
type Graph struct {
	N     int
	Edges []Edge // sorted by (U, V), distinct

	// Lazily built CSR adjacency: node u's neighbours, ascending, are
	// nbr[off[u]:off[u+1]], and those above u start at mid[u].
	off, mid []int
	nbr      []int
	adjOnce  sync.Once // guards the lazy build: reducers share one graph
}

// New builds a graph from an edge list, dropping duplicates, loops and
// edges with an endpoint outside 0..n-1.
func New(n int, edges []Edge) *Graph {
	kept := make([]Edge, 0, len(edges))
	for _, e := range edges {
		e = NewEdge(e.U, e.V)
		if e.U == e.V || e.U < 0 || e.V >= n {
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) == 0 {
		return &Graph{N: n}
	}
	slices.SortFunc(kept, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return &Graph{N: n, Edges: slices.Clip(slices.Compact(kept))}
}

// M is the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// buildAdj lays out the CSR adjacency in two linear passes over the
// sorted edges: first every edge's upper endpoint receives its lower
// one, then every lower endpoint its upper one. Both passes visit a
// node's neighbours in ascending order and the lower ones all precede
// the upper ones, so every list comes out sorted.
func (g *Graph) buildAdj() {
	off := make([]int, g.N+1)
	mid := make([]int, g.N) // lower-neighbour counts, then offsets
	for _, e := range g.Edges {
		off[e.U+1]++
		off[e.V+1]++
		mid[e.V]++
	}
	for u := range g.N {
		off[u+1] += off[u]
		mid[u] += off[u]
	}
	nbr := make([]int, off[g.N])
	next := slices.Clone(off[:g.N])
	for _, e := range g.Edges {
		nbr[next[e.V]] = e.U
		next[e.V]++
	}
	for _, e := range g.Edges {
		nbr[next[e.U]] = e.V
		next[e.U]++
	}
	g.off, g.mid, g.nbr = off, mid, nbr
}

// Adj returns the sorted adjacency list of node u. The list is clipped
// to its length, so appending to it never writes into another node's.
func (g *Graph) Adj(u int) []int {
	g.adjOnce.Do(g.buildAdj)
	return g.nbr[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// fwd returns u's forward neighbours: those above u, ascending.
func (g *Graph) fwd(u int) []int {
	return g.nbr[g.mid[u]:g.off[u+1]]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.Adj(u), v)
	return ok
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.Adj(u)) }

// Complete returns K_n, the paper's "all possible edges present" instance.
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{u, v})
		}
	}
	return New(n, edges)
}

// GNM returns a uniform random graph with n nodes and m distinct edges —
// the sparse-data model of Section 4.2.
func GNM(n, m int, rng *rand.Rand) *Graph {
	max := n * (n - 1) / 2
	if m > max {
		m = max
	}
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		e := NewEdge(u, v)
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return New(n, edges)
}

// Cycle returns the n-cycle.
func Cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, NewEdge(i, (i+1)%n))
	}
	return New(n, edges)
}

// Path returns the path with n nodes (n-1 edges).
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return New(n, edges)
}

// Star returns the star with one hub (node 0) and n-1 leaves — the
// skewed-degree instance discussed in Section 1.4.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, i})
	}
	return New(n, edges)
}

// ForEachTriangle calls f(u, v, w) once for every triangle u < v < w,
// in lexicographic (u, v, w) order. It is the forward mark-and-scan
// kernel: for each u it stamps u's forward neighbours, then for each
// forward neighbour v of u, ascending, it scans v's forward neighbours
// and reports the stamped ones. The work is O(N + m + Σᵥ indeg(v)·outdeg(v))
// in the ascending-id orientation, never more than the Σᵥ deg(v)² of
// intersecting full adjacency lists, plus one N-entry mark array.
func (g *Graph) ForEachTriangle(f func(u, v, w int)) {
	g.adjOnce.Do(g.buildAdj)
	mark := make([]int, g.N)
	for u := range g.N {
		fu := g.fwd(u)
		if len(fu) < 2 {
			continue
		}
		stamp := u + 1
		for _, w := range fu {
			mark[w] = stamp
		}
		for _, v := range fu[:len(fu)-1] {
			for _, w := range g.fwd(v) {
				if mark[w] == stamp {
					f(u, v, w)
				}
			}
		}
	}
}

// TriangleCount counts triangles serially with ForEachTriangle; it is
// the correctness baseline for the Section 4 algorithms.
func (g *Graph) TriangleCount() int64 {
	var count int64
	g.ForEachTriangle(func(_, _, _ int) { count++ })
	return count
}

// Triangles enumerates all triangles (u < v < w) serially, in
// lexicographic order. A counting pass sizes the result exactly.
func (g *Graph) Triangles() [][3]int {
	n := g.TriangleCount()
	if n == 0 {
		return nil
	}
	out := make([][3]int, 0, n)
	g.ForEachTriangle(func(u, v, w int) { out = append(out, [3]int{u, v, w}) })
	return out
}

// TwoPathCount counts unordered 2-paths v—u—w (u the middle node):
// Σᵤ C(deg(u), 2). This is the |O| of Section 5.4 restricted to the
// instance.
func (g *Graph) TwoPathCount() int64 {
	var count int64
	for u := 0; u < g.N; u++ {
		d := int64(g.Degree(u))
		count += d * (d - 1) / 2
	}
	return count
}

// TwoPaths enumerates all 2-paths as (middle, end1, end2) with end1 < end2.
func (g *Graph) TwoPaths() [][3]int {
	var out [][3]int
	for u := 0; u < g.N; u++ {
		adj := g.Adj(u)
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				out = append(out, [3]int{u, adj[i], adj[j]})
			}
		}
	}
	return out
}

// String renders a short description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N, g.M())
}
