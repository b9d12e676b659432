package cycles

import (
	"repro/internal/graph"
	"repro/internal/rat"
)

// VertexRates computes, for every vertex, its asymptotic firing interval in
// the timed event graph semantics: the maximum cycle ratio over all cycles
// from which the vertex is reachable. Vertices not reachable from any cycle
// have rate 0 (they fire once per... they are only throttled by their
// inputs' transient, i.e. asymptotically unconstrained; callers treat 0 as
// "no steady-state constraint").
//
// This quantifies the phenomenon exhibited by replicated mappings: the
// output streams of sibling replicas are structurally decoupled, so a fast
// replica's transitions settle at a smaller firing interval than the
// system's period — the system period is the maximum over vertices.
func (s *System) VertexRates() ([]rat.Rat, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	comp, ncomp := s.G.SCC()
	// Per-SCC max cycle ratio (zero when the SCC has no cycle): the plan's
	// components carry the SCC ids graph.Digraph.SCC assigns.
	var ws Workspace
	p := ws.Compile(s)
	if p.err != nil {
		return nil, p.err
	}
	ws.intMode = ws.scaleCosts(s)
	sccRatio := make([]rat.Rat, ncomp)
	for i := range p.comps {
		pc := &p.comps[i]
		if r, _, ok := ws.sweep(s, pc); ok {
			sccRatio[pc.scc] = r
		}
	}
	// Propagate along the condensation: rate(C) = max(ratio(C),
	// rate(predecessors)). Tarjan ids are reverse topological (sinks first),
	// so iterating ids from high to low visits sources before sinks.
	rate := make([]rat.Rat, ncomp)
	copy(rate, sccRatio)
	// Collect condensation edges pred -> succ.
	type ce struct{ from, to int }
	var edges []ce
	for _, e := range s.G.Edges {
		cf, ct := comp[e.From], comp[e.To]
		if cf != ct {
			edges = append(edges, ce{cf, ct})
		}
	}
	// Iterate until fixpoint; the condensation is a DAG so ncomp rounds
	// suffice (and in practice one pass in id order nearly does).
	for round := 0; round < ncomp; round++ {
		changed := false
		for _, e := range edges {
			if rate[e.to].Less(rate[e.from]) {
				rate[e.to] = rate[e.from]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make([]rat.Rat, s.G.N)
	for v := 0; v < s.G.N; v++ {
		out[v] = rate[comp[v]]
	}
	return out, nil
}

// Condensation returns the SCC condensation of the system's graph as a
// DAG over component ids, together with the vertex->component map.
func (s *System) Condensation() (*graph.Digraph, []int) {
	comp, ncomp := s.G.SCC()
	dag := graph.New(ncomp)
	seen := map[[2]int]bool{}
	for _, e := range s.G.Edges {
		cf, ct := comp[e.From], comp[e.To]
		if cf == ct {
			continue
		}
		k := [2]int{cf, ct}
		if !seen[k] {
			seen[k] = true
			dag.AddEdge(cf, ct, 0)
		}
	}
	return dag, comp
}
