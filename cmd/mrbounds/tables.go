package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/hamming"
	"repro/internal/join"
	"repro/internal/matmul"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/subgraph"
	"repro/internal/triangle"
)

// runTable1 reprints Table 1: for each problem, the instance counts |I|
// and |O|, g(q) at a sample q, and the replication-rate lower bound, each
// computed from the implemented recipes (with the monotonicity side
// condition verified numerically).
func runTable1() {
	fmt.Println("Table 1 — lower bounds on replication rate r (recipe of Section 2.4)")
	fmt.Printf("%-34s %12s %14s %14s %12s %10s\n", "problem", "|I|", "|O|", "g(q) @ q", "r >= (@q)", "g/q mono")

	row := func(name string, rc core.Recipe, q float64) {
		fmt.Printf("%-34s %12.0f %14.0f %14.1f %12.4f %10v\n",
			name, rc.NumInputs, rc.NumOutputs, rc.G(q), rc.LowerBound(q),
			rc.GOverQMonotone(math.Max(2, q/64), q*4, 200))
	}

	// Hamming-distance-1, b-bit strings: lower bound b/log2 q.
	b := 16
	row(fmt.Sprintf("Hamming-1 (b=%d, q=2^8)", b), hamming.Recipe(b), 256)

	// Triangles, n nodes: n/sqrt(2q).
	n := 100
	row(fmt.Sprintf("Triangles (n=%d, q=200)", n), triangle.Recipe(n), 200)

	// Alon-class sample graphs of s nodes: (n/sqrt(q))^{s-2}.
	for _, s := range []int{3, 4, 5} {
		q := 400.0
		lb := subgraph.AlonLowerBound(float64(n), s, q)
		fmt.Printf("%-34s %12.0f %14s %14.1f %12.4f %10s\n",
			fmt.Sprintf("Alon sample s=%d (n=%d, q=400)", s, n),
			float64(n)*float64(n)/2, fmt.Sprintf("~n^%d", s),
			subgraph.MaxInstancesAlon(q, s), lb, "q^{s/2}")
	}

	// 2-paths: 2n/q.
	row(fmt.Sprintf("2-paths (n=%d, q=50)", n), subgraph.TwoPathRecipe(n), 50)

	// Multiway join: chain of N=3 binary relations, rho from the LP.
	rels := relation.FullChain(3, 10)
	rho, _, err := join.FromQuery(rels).FractionalEdgeCover()
	if err != nil {
		fmt.Println("chain join LP failed:", err)
	} else {
		q := 100.0
		fmt.Printf("%-34s %12d %14s %14.1f %12.4f %10s\n",
			"Chain join N=3 (n=10, q=100)", 3*100, "n^m",
			math.Pow(q, rho), join.LowerBound(10, 4, rho, q),
			fmt.Sprintf("rho=%.1f", rho))
	}

	// Matrix multiplication: 2n^2/q.
	mn := 64
	row(fmt.Sprintf("MatMul (n=%d, q=2n^{1.5})", mn), matmul.Recipe(mn), 2*math.Pow(float64(mn), 1.5))
}

// table2Row is one line of Table 2: an algorithm's realized reducer
// size q and replication rate r, and the recipe's lower bound on r at
// that q for the exact instance the algorithm ran on.
type table2Row struct {
	name     string
	q        int
	r        float64
	bound    float64
	hasBound bool // false for the star join, whose r is the paper's upper bound
}

// exactBound evaluates a recipe's lower bound at q with |I| and |O| set
// to the instance's exact counts, in place of the recipe's asymptotic
// ones.
func exactBound(rc core.Recipe, inputs, outputs, q int) float64 {
	rc.NumInputs, rc.NumOutputs = float64(inputs), float64(outputs)
	return rc.LowerBound(float64(q))
}

// table2Rows executes each constructive algorithm (structurally via
// core.Measure on the complete instance, and on the MapReduce engine
// where stated) and pairs its realized r with the exact recipe bound.
func table2Rows() []table2Row {
	var rows []table2Row
	measured := func(name string, q int, r float64, rc core.Recipe, inputs, outputs int) {
		rows = append(rows, table2Row{name, q, r, exactBound(rc, inputs, outputs, q), true})
	}

	// Hamming-1 Splitting at several c.
	b := 12
	p := hamming.NewProblem(b)
	for _, c := range []int{2, 3, 4} {
		s, err := hamming.NewSplittingSchema(b, c)
		if err != nil {
			panic(err)
		}
		st := core.Measure(p, s)
		measured(fmt.Sprintf("Hamming-1 Splitting (b=%d, c=%d)", b, c),
			st.MaxReducerLoad, st.ReplicationRate, hamming.Recipe(b), p.NumInputs(), p.NumOutputs())
	}

	// Triangles: partition algorithm on K_n.
	n := 30
	tp := triangle.NewProblem(n)
	for _, k := range []int{3, 6} {
		s, err := triangle.NewPartitionSchema(n, k)
		if err != nil {
			panic(err)
		}
		st := core.Measure(tp, s)
		measured(fmt.Sprintf("Triangles partition (n=%d, k=%d)", n, k),
			st.MaxReducerLoad, st.ReplicationRate, triangle.Recipe(n), tp.NumInputs(), tp.NumOutputs())
	}

	// Sample graphs: matcher on a random graph, measured on the engine.
	// The instance's inputs are its edges and its outputs its triangles.
	rng := rand.New(rand.NewSource(1))
	data := graphs.GNM(24, 90, rng)
	m, err := subgraph.NewMatcher(graphs.Cycle(3), 2)
	if err != nil {
		panic(err)
	}
	_, met, err := m.Run(data, mr.Config{})
	if err != nil {
		panic(err)
	}
	measured("Sample graph matcher (triangle, b=2)", int(met.MaxReducerInput), met.ReplicationRate(),
		core.Recipe{G: triangle.MaxTrianglesAmongEdges}, data.M(), int(data.TriangleCount()))

	// 2-paths.
	np := 24
	tpp := subgraph.NewTwoPathProblem(np)
	for _, k := range []int{2, 4} {
		s, err := subgraph.NewTwoPathSchema(np, k)
		if err != nil {
			panic(err)
		}
		st := core.Measure(tpp, s)
		measured(fmt.Sprintf("2-paths hash (n=%d, k=%d)", np, k),
			st.MaxReducerLoad, st.ReplicationRate, subgraph.TwoPathRecipe(np), tpp.NumInputs(), tpp.NumOutputs())
	}

	// Chain join via optimized Shares, measured on the engine.
	rels := relation.FullChain(3, 8)
	sh, err := join.OptimizeShares(rels, 16)
	if err != nil {
		panic(err)
	}
	out, jm, err := sh.Run(mr.Config{})
	if err != nil {
		panic(err)
	}
	inputs := 0
	for _, rel := range rels {
		inputs += rel.Size()
	}
	measured(fmt.Sprintf("Chain join Shares N=3 (%s)", sh.Describe()),
		int(jm.MaxReducerInput), jm.ReplicationRate(), join.ChainRecipe(8, 3), inputs, out.Size())

	// Star join: the paper's closed-form Shares rate, not a measurement.
	f, d0, nd := 1e5, 1e3, 3
	pReducers := 64.0
	rows = append(rows, table2Row{
		name: fmt.Sprintf("Star join N=%d (f=%.0g, d0=%.0g, p=%.0f)", nd, f, d0, pReducers),
		r:    join.StarUpperBound(f, d0, nd, pReducers),
	})

	// MatMul one-phase.
	mn := 16
	mp := matmul.NewProblem(mn)
	for _, s := range []int{2, 4} {
		schema, err := matmul.NewOnePhaseSchema(mn, s)
		if err != nil {
			panic(err)
		}
		st := core.Measure(mp, schema)
		measured(fmt.Sprintf("MatMul 1-phase (n=%d, s=%d)", mn, s),
			st.MaxReducerLoad, st.ReplicationRate, matmul.Recipe(mn), mp.NumInputs(), mp.NumOutputs())
	}
	return rows
}

// runTable2 reprints Table 2 with *measured* replication rates, each
// next to the recipe's exact lower bound for its instance and q.
func runTable2() {
	fmt.Println("Table 2 — measured upper bounds on replication rate")
	fmt.Printf("%-40s %10s %12s %14s\n", "algorithm", "q", "r measured", "r lower bound")
	for _, row := range table2Rows() {
		if !row.hasBound {
			fmt.Printf("%-40s %10s %12.4f %14s\n", row.name, "-", row.r, "upper bound")
			continue
		}
		fmt.Printf("%-40s %10d %12.4f %14.4f\n", row.name, row.q, row.r, row.bound)
	}
	fmt.Println("(upper bound: the star join's r is the paper's closed-form Shares rate, not measured)")
}
