package cycles

import (
	"repro/internal/graph"
	"repro/internal/rat"
)

// MaxRatioKarp computes the maximum cycle ratio exactly by token
// contraction and Karp's maximum mean cycle algorithm (Karp, "A
// characterization of the minimum cycle mean in a digraph", 1978), the
// engine cycle iteration replaced. Tests keep it as an independent
// reference: it shares no code with the plan engine beyond Validate.
//
// A token edge followed by a longest zero-token path to the tail of a token
// edge becomes one contracted edge; a contracted edge leaving a k-token
// edge becomes k unit hops through fresh vertices, its cost on the first.
// Every hop then carries one token, so the maximum cycle ratio is the
// maximum mean cycle of the hop graph, which Karp's dynamic program finds
// on each of its strongly connected components.
func (s *System) MaxRatioKarp() (rat.Rat, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, err
	}
	if !s.hasCycle() {
		return rat.Rat{}, ErrNoCycle
	}
	zero := s.G.Subgraph(func(e graph.Edge) bool { return s.Tokens[e.ID] == 0 })
	order, err := zero.TopoOrder()
	if err != nil {
		return rat.Rat{}, err
	}
	var tokenEdges []int
	for i := range s.G.Edges {
		if s.Tokens[i] > 0 {
			tokenEdges = append(tokenEdges, i)
		}
	}
	type hop struct {
		from, to int
		cost     rat.Rat
	}
	var hops []hop
	nv := len(tokenEdges)
	adj := zero.Adj()
	for from, ei := range tokenEdges {
		// Longest zero-token paths from the token edge's head.
		dist := make([]rat.Rat, s.G.N)
		reached := make([]bool, s.G.N)
		reached[s.G.Edges[ei].To] = true
		for _, u := range order {
			if !reached[u] {
				continue
			}
			for _, i := range adj[u] {
				e := zero.Edges[i]
				if cand := dist[u].Add(s.Cost[e.ID]); !reached[e.To] || dist[e.To].Less(cand) {
					dist[e.To], reached[e.To] = cand, true
				}
			}
		}
		for to, ej := range tokenEdges {
			tail := s.G.Edges[ej].From
			if !reached[tail] {
				continue
			}
			prev, cost := from, s.Cost[ei].Add(dist[tail])
			for k := s.Tokens[ei]; k > 1; k-- {
				hops = append(hops, hop{prev, nv, cost})
				prev, cost = nv, rat.Zero()
				nv++
			}
			hops = append(hops, hop{prev, to, cost})
		}
	}

	hg := graph.New(nv)
	for i, h := range hops {
		hg.AddEdge(h.from, h.to, i)
	}
	comp, ncomp := hg.SCC()
	best, found := rat.Zero(), false
	for c := 0; c < ncomp; c++ {
		var verts []int
		local := make(map[int]int)
		for v := 0; v < nv; v++ {
			if comp[v] == c {
				local[v] = len(verts)
				verts = append(verts, v)
			}
		}
		n := len(verts)
		// D[k][v]: the heaviest k-hop walk from verts[0] to v inside the
		// component (has marks the defined entries).
		D := make([][]rat.Rat, n+1)
		has := make([][]bool, n+1)
		for k := range D {
			D[k], has[k] = make([]rat.Rat, n), make([]bool, n)
		}
		has[0][0] = true
		inside := false
		for k := 1; k <= n; k++ {
			for _, h := range hops {
				if comp[h.from] != c || comp[h.to] != c {
					continue
				}
				inside = true
				u, v := local[h.from], local[h.to]
				if !has[k-1][u] {
					continue
				}
				if cand := D[k-1][u].Add(h.cost); !has[k][v] || D[k][v].Less(cand) {
					D[k][v], has[k][v] = cand, true
				}
			}
		}
		if !inside {
			continue
		}
		// λ* = max_v min_k (D[n][v] − D[k][v]) / (n − k).
		for v := 0; v < n; v++ {
			if !has[n][v] {
				continue
			}
			inner, set := rat.Zero(), false
			for k := 0; k < n; k++ {
				if !has[k][v] {
					continue
				}
				if cand := D[n][v].Sub(D[k][v]).DivInt(int64(n - k)); !set || cand.Less(inner) {
					inner, set = cand, true
				}
			}
			if set && (!found || best.Less(inner)) {
				best, found = inner, true
			}
		}
	}
	if !found {
		return rat.Rat{}, ErrNoCycle
	}
	return best, nil
}
