package graphs

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTriangleCount measures the serial counter across densities.
func BenchmarkTriangleCount(b *testing.B) {
	for _, m := range []int{500, 2000, 8000} {
		g := GNM(300, m, rand.New(rand.NewSource(1)))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.TriangleCount()
			}
		})
	}
}

// BenchmarkGNM measures graph generation.
func BenchmarkGNM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < b.N; i++ {
		_ = GNM(500, 5000, rng)
	}
}

// BenchmarkAdjacency measures lazy adjacency construction plus queries.
func BenchmarkAdjacency(b *testing.B) {
	base := GNM(400, 6000, rand.New(rand.NewSource(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(base.N, base.Edges)
		found := 0
		for u := 0; u < g.N; u += 7 {
			if g.HasEdge(u, (u+13)%g.N) {
				found++
			}
		}
		_ = found
	}
}

// BenchmarkLocalTriangles measures one reducer of the bucket-triple
// triangle schema (k = 6): listing the triangles of the subgraph of
// G(2000, 200000) induced by the nodes of buckets 0, 1 and 2 (about 50k
// edges), built from the edge list a reducer receives.
func BenchmarkLocalTriangles(b *testing.B) {
	const n, k = 2000, 6
	g := GNM(n, 200_000, rand.New(rand.NewSource(1)))
	var edges []Edge
	for _, e := range g.Edges {
		if e.U%k < 3 && e.V%k < 3 {
			edges = append(edges, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(n, edges).Triangles()
	}
}
