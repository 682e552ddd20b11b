// Package graphs provides the undirected-graph substrate for the
// triangle-finding (Section 4) and sample-graph (Section 5) problems:
// graph construction, standard generators, and serial baseline counters
// against which the MapReduce algorithms are verified.
package graphs

import (
	"fmt"
	"math/rand"
	"sort"
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
	N       int
	Edges   []Edge
	adj     [][]int   // lazily built adjacency lists, sorted
	adjOnce sync.Once // guards the lazy build: reducers share one graph
}

// New builds a graph from an edge list, dropping duplicates and loops.
func New(n int, edges []Edge) *Graph {
	seen := make(map[Edge]bool, len(edges))
	g := &Graph{N: n}
	for _, e := range edges {
		e = NewEdge(e.U, e.V)
		if e.U == e.V || e.U < 0 || e.V >= n || seen[e] {
			continue
		}
		seen[e] = true
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].U != g.Edges[j].U {
			return g.Edges[i].U < g.Edges[j].U
		}
		return g.Edges[i].V < g.Edges[j].V
	})
	return g
}

// M is the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Adj returns the sorted adjacency list of node u.
func (g *Graph) Adj(u int) []int {
	g.adjOnce.Do(func() {
		g.adj = make([][]int, g.N)
		for _, e := range g.Edges {
			g.adj[e.U] = append(g.adj[e.U], e.V)
			g.adj[e.V] = append(g.adj[e.V], e.U)
		}
		for _, l := range g.adj {
			sort.Ints(l)
		}
	})
	return g.adj[u]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	l := g.Adj(u)
	i := sort.SearchInts(l, v)
	return i < len(l) && l[i] == v
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

// TriangleCount counts triangles serially with the standard
// degree-ordered adjacency intersection; it is the correctness baseline
// for the Section 4 algorithms.
func (g *Graph) TriangleCount() int64 {
	var count int64
	for _, e := range g.Edges {
		u, v := e.U, e.V
		au, av := g.Adj(u), g.Adj(v)
		i, j := 0, 0
		for i < len(au) && j < len(av) {
			switch {
			case au[i] < av[j]:
				i++
			case au[i] > av[j]:
				j++
			default:
				if au[i] > v { // count each triangle once: w > v > u
					count++
				}
				i++
				j++
			}
		}
	}
	return count
}

// Triangles enumerates all triangles (u < v < w) serially.
func (g *Graph) Triangles() [][3]int {
	var out [][3]int
	for _, e := range g.Edges {
		u, v := e.U, e.V
		au, av := g.Adj(u), g.Adj(v)
		i, j := 0, 0
		for i < len(au) && j < len(av) {
			switch {
			case au[i] < av[j]:
				i++
			case au[i] > av[j]:
				j++
			default:
				if au[i] > v {
					out = append(out, [3]int{u, v, au[i]})
				}
				i++
				j++
			}
		}
	}
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
