// Package join implements Section 5.5 of the paper: multiway joins as
// map-reduce problems. It provides the query hypergraph, optimal
// fractional edge covers (the parameter ρ of Table 1, computed with the
// simplex solver of internal/lp following Atserias–Grohe–Marx [6]), the
// AGM output-size bound of Section 5.5's closing discussion, the
// replication-rate lower bounds for general multiway joins and star
// joins, and an executable Shares algorithm (Afrati–Ullman [1]) with a
// communication-optimizing share search for chain and star queries.
package join

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/relation"
)

// Hypergraph is the hypergraph G(q) of a join query: one node per
// attribute, one hyperedge per relational atom.
type Hypergraph struct {
	Vars  []string // attribute names, in first-appearance order
	Edges []Edge   // one per relation
}

// Edge is one hyperedge: the atom's name and the indices of its
// attributes in Vars.
type Edge struct {
	Name string
	Vars []int
}

// FromQuery builds the hypergraph of a query given as a list of relations.
func FromQuery(rels []*relation.Relation) Hypergraph {
	var h Hypergraph
	index := map[string]int{}
	for _, r := range rels {
		e := Edge{Name: r.Name}
		for _, a := range r.Attrs {
			i, ok := index[a]
			if !ok {
				i = len(h.Vars)
				index[a] = i
				h.Vars = append(h.Vars, a)
			}
			e.Vars = append(e.Vars, i)
		}
		h.Edges = append(h.Edges, e)
	}
	return h
}

// NumVars is the number of attributes m.
func (h Hypergraph) NumVars() int { return len(h.Vars) }

// FractionalEdgeCover solves the LP
//
//	minimize Σ_e x_e  subject to  Σ_{e ∋ v} x_e ≥ 1 for every var v, x ≥ 0
//
// returning ρ = Σ x_e and the per-edge weights. This is the parameter ρ
// that bounds the output of any q inputs by g(q) = q^ρ (Section 5.5.1).
func (h Hypergraph) FractionalEdgeCover() (rho float64, weights []float64, err error) {
	if len(h.Edges) == 0 {
		return 0, nil, fmt.Errorf("join: empty query")
	}
	p := lp.Problem{Minimize: make([]float64, len(h.Edges))}
	for j := range p.Minimize {
		p.Minimize[j] = 1
	}
	for v := range h.Vars {
		row := make([]float64, len(h.Edges))
		for j, e := range h.Edges {
			for _, u := range e.Vars {
				if u == v {
					row[j] = 1
				}
			}
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 1})
	}
	sol, err := lp.Solve(p)
	if err != nil {
		return 0, nil, fmt.Errorf("join: fractional edge cover: %w", err)
	}
	return sol.Value, sol.X, nil
}

// AGMBound is the Atserias–Grohe–Marx bound on the join output size:
// |O| ≤ Π_e |R_e|^{x_e} for any fractional edge cover x. Called with the
// optimal cover it is tight up to constants.
func AGMBound(sizes []float64, weights []float64) float64 {
	bound := 1.0
	for i, s := range sizes {
		bound *= math.Pow(s, weights[i])
	}
	return bound
}

// LowerBound is the Section 5.5.1 replication-rate lower bound for a
// multiway join over binary relations on a domain of n values with m
// variables and fractional-cover parameter ρ:
//
//	r ≥ n^{m-2} / q^{ρ-1}
//
// (constant factors dropped, as in the paper).
func LowerBound(n float64, m int, rho, q float64) float64 {
	return math.Pow(n, float64(m-2)) / math.Pow(q, rho-1)
}

// GeneralArityLowerBound generalizes the Section 5.5.1 bound to relations
// of uniform arity α ≥ 2 with s relational atoms and ρ = s/α:
//
//	r ≥ n^{m-α} / q^{s/α - 1}
func GeneralArityLowerBound(n float64, m, alpha, s int, q float64) float64 {
	return math.Pow(n, float64(m-alpha)) / math.Pow(q, float64(s)/float64(alpha)-1)
}

// ChainLowerBound specializes the bound to a chain of N binary relations
// (m = N+1, ρ = (N+1)/2 for odd N): r ≥ (n/√q)^{N-1} (Section 5.5.2).
func ChainLowerBound(n float64, numRels int, q float64) float64 {
	return math.Pow(n/math.Sqrt(q), float64(numRels-1))
}

// ChainRecipe is the Section 2.4 recipe for a chain of numRels binary
// relations over a domain of n values, all relations full: |I| =
// numRels·n², |O| = n^{numRels+1}. The c = ⌊numRels/2⌋+1 relations R1,
// R3, R5, … (and R_N when N is even) cover every attribute, so each
// output is fixed by one tuple of each, and a reducer holding q tuples
// covers at most the product of c sizes summing to q: g(q) = (q/c)^c.
func ChainRecipe(n float64, numRels int) core.Recipe {
	c := float64(numRels/2 + 1)
	return core.Recipe{
		ProblemName: fmt.Sprintf("chain-join(N=%d, n=%g)", numRels, n),
		G:           func(q float64) float64 { return math.Pow(q/c, c) },
		NumInputs:   float64(numRels) * n * n,
		NumOutputs:  math.Pow(n, float64(numRels+1)),
	}
}

// StarUpperBound is the Section 5.5.2 replication rate of the Shares
// algorithm on a star join with N dimension tables: fact size f, dimension
// size d0, p reducers, share p^{1/N} on each fact attribute:
//
//	r = (f + N·d0·p^{(N-1)/N}) / (f + N·d0)
func StarUpperBound(f, d0 float64, numDims int, p float64) float64 {
	nd := float64(numDims)
	return (f + nd*d0*math.Pow(p, (nd-1)/nd)) / (f + nd*d0)
}

// StarLowerBound is the Section 5.5.2 lower bound for the star join:
//
//	r ≥ N·d0·(N·d0/q)^{N-1} / (f + N·d0)
func StarLowerBound(f, d0 float64, numDims int, q float64) float64 {
	nd := float64(numDims)
	return nd * d0 * math.Pow(nd*d0/q, nd-1) / (f + nd*d0)
}
