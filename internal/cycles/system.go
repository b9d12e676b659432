// Package cycles computes maximum cycle ratios of directed graphs whose
// edges carry an exact cost and a token count:
//
//	λ* = max over directed cycles C of  cost(C) / tokens(C).
//
// This is exactly the critical-cycle computation of Section 4 of the paper:
// the period of a timed event graph equals the maximum, over its cycles, of
// the total firing time divided by the number of tokens (Baccelli et al.,
// "Synchronization and Linearity").
//
// Three engines are provided and cross-checked against each other:
//
//   - MaxRatio (cycle iteration on a compiled Plan): exact, the sparse-token
//     default. All TPNs built in this repository have an acyclic zero-token
//     subgraph, so a Plan (Workspace.Compile) holds the token edges and the
//     zero-token DAG in topological order. A potential check at λ (RatioAtMostPlan) relaxes longest paths
//     under the reduced weights cost − λ·tokens round by round and decides
//     whether λ ≥ λ*; when it fails, the predecessor graph of its
//     relaxation closes a cycle with a ratio above λ. Cycle iteration
//     (MaxRatioFrom) sets λ to that ratio and checks again until a check
//     holds, on scaled int64 costs where they fit and in rationals
//     otherwise.
//   - MaxRatioHoward (policy iteration): exact, handles arbitrary token
//     counts; BackendAuto routes dense-token systems such as max-plus
//     recurrence matrices to it.
//   - MaxRatioBrute: exhaustive elementary-cycle enumeration
//     (EnumerateElementaryCycles), a test-only ground truth
//     (brute_test.go).
//
// Tests also keep two references that production code no longer runs:
// token contraction + Karp's maximum mean cycle (karp_test.go), the engine
// cycle iteration replaced, and Lawler's float64 binary search
// (lawler_test.go).
//
// core.Solver starts cycle iteration at the lower bound Mct·m on an
// unfolded net, so the usual case, a net whose period is Mct, costs one
// holding check, and under a search's cutoff (MaxRatioBelow) it stops at
// the first cycle that reaches it. Theorem 1's pattern graphs start at
// their heaviest port circuit.
//
// Workspace.MaxRatioBackend selects between the two exact engines (Backend
// enum: auto, karp, howard; "karp" names the plan route); the auto
// heuristic routes by token-edge share.
package cycles

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rat"
)

// System is a directed multigraph with per-edge costs and token counts.
// Cost and Tokens are parallel to G.Edges.
type System struct {
	G      *graph.Digraph
	Cost   []rat.Rat
	Tokens []int
}

// NewSystem returns an empty system over n vertices.
func NewSystem(n int) *System {
	return &System{G: graph.New(n)}
}

// Reset empties the system and sets the vertex count to n, keeping the edge,
// cost and token backing arrays so a solver loop can rebuild systems of
// similar size without reallocating.
func (s *System) Reset(n int) {
	if s.G == nil {
		s.G = graph.New(n)
	} else {
		s.G.Reset(n)
	}
	s.Cost = s.Cost[:0]
	s.Tokens = s.Tokens[:0]
}

// AddEdge appends an edge u->v with the given cost and token count and
// returns its index.
func (s *System) AddEdge(u, v int, cost rat.Rat, tokens int) int {
	if tokens < 0 {
		panic(fmt.Sprintf("cycles: negative token count %d", tokens))
	}
	idx := s.G.AddEdge(u, v, len(s.Cost))
	s.Cost = append(s.Cost, cost)
	s.Tokens = append(s.Tokens, tokens)
	return idx
}

// ErrNoCycle is returned when the graph has no directed cycle: the maximum
// cycle ratio is undefined (an acyclic event graph has no steady-state
// constraint).
var ErrNoCycle = errors.New("cycles: graph has no directed cycle")

// ErrDeadlock is returned when a cycle without tokens exists: the
// corresponding timed event graph can never fire the transitions on that
// cycle.
var ErrDeadlock = errors.New("cycles: zero-token cycle (event graph deadlock)")

// negativeCost reports the first negative edge cost, the one value check
// every engine makes before any structural one.
func negativeCost(s *System) error {
	for i, c := range s.Cost {
		if c.Sign() < 0 {
			return fmt.Errorf("cycles: edge %d has negative cost %v", i, c)
		}
	}
	return nil
}

// Validate checks structural sanity: costs must be non-negative and no
// zero-token cycle may exist.
func (s *System) Validate() error {
	if err := negativeCost(s); err != nil {
		return err
	}
	zero := s.G.Subgraph(func(e graph.Edge) bool { return s.Tokens[e.ID] == 0 })
	if !zero.IsAcyclic() {
		return ErrDeadlock
	}
	return nil
}

// hasCycle reports whether the graph contains any directed cycle.
func (s *System) hasCycle() bool {
	return !s.G.IsAcyclic()
}

// Result is the outcome of a maximum-cycle-ratio computation.
type Result struct {
	Ratio rat.Rat
	// Cycle is a witness achieving the ratio, as a sequence of edge indices
	// into the system (first edge leaves the cycle's first vertex). It may be
	// nil when the engine does not reconstruct witnesses.
	Cycle []int
}

// CycleVertices returns the vertex sequence of the witness cycle.
func (s *System) CycleVertices(cycle []int) []int {
	vs := make([]int, 0, len(cycle))
	for _, ei := range cycle {
		vs = append(vs, s.G.Edges[ei].From)
	}
	return vs
}

// CycleRatio computes cost(C)/tokens(C) for a cycle given by edge indices —
// the ratio a witness returned in a Result achieves. The differential and
// fuzz harnesses use it to certify that every backend's witness attains the
// reported maximum.
func (s *System) CycleRatio(cycle []int) (rat.Rat, error) {
	cost := rat.Zero()
	tokens := int64(0)
	for _, ei := range cycle {
		cost = cost.Add(s.Cost[ei])
		tokens += int64(s.Tokens[ei])
	}
	if tokens == 0 {
		return rat.Zero(), ErrDeadlock
	}
	return cost.DivInt(tokens), nil
}

// VerifyRatio checks that λ is indeed the maximum cycle ratio: with edge
// weights cost − λ·tokens there must be no positive-weight cycle, and at
// least one zero-weight cycle must exist. It is used to double-check engines
// against one another in tests and by callers that want a certificate.
func (s *System) VerifyRatio(lambda rat.Rat) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !s.hasCycle() {
		return ErrNoCycle
	}
	pos, tight := s.reducedCycleSignature(lambda)
	if pos {
		return fmt.Errorf("cycles: ratio %v too small: positive reduced cycle exists", lambda)
	}
	if !tight {
		return fmt.Errorf("cycles: ratio %v too large: no tight cycle exists", lambda)
	}
	return nil
}

// reducedCycleSignature runs exact Bellman–Ford-style longest-path analysis
// with edge weights cost − λ·tokens, per SCC. It reports whether a strictly
// positive cycle exists and whether some cycle has weight exactly zero.
func (s *System) reducedCycleSignature(lambda rat.Rat) (positive, tight bool) {
	comp, ncomp := s.G.SCC()
	for c := 0; c < ncomp; c++ {
		r, ok := s.reducedLongest(comp, c, lambda)
		if !ok {
			continue
		}
		if r.positive {
			return true, tight
		}
		// Tight cycle detection: edges with dist[u] + w == dist[v] form the
		// tight subgraph; a zero-weight cycle exists iff that subgraph has a
		// cycle.
		tg := graph.New(len(r.dist))
		for _, ei := range r.edges {
			if u, v, ok := r.tightEdge(s, ei); ok {
				tg.AddEdge(u, v, ei)
			}
		}
		tight = tight || !tg.IsAcyclic()
	}
	return false, tight
}

// reduced is the longest-path state of one component under the reduced
// weights cost − λ·tokens: its intra-component edges, the local vertex ids,
// the distances from its first vertex, and whether a relaxation round past
// the n−1 a longest path needs still improved (a positive cycle).
type reduced struct {
	lambda   rat.Rat
	edges    []int
	idx      map[int]int
	dist     []rat.Rat
	has      []bool
	positive bool
}

// reducedLongest runs the Bellman–Ford-style longest-path relaxation of
// component c of s under the reduced weights. ok is false for a component
// without an edge.
func (s *System) reducedLongest(comp []int, c int, lambda rat.Rat) (r reduced, ok bool) {
	var verts []int
	for v := 0; v < s.G.N; v++ {
		if comp[v] == c {
			verts = append(verts, v)
		}
	}
	for i, e := range s.G.Edges {
		if comp[e.From] == c && comp[e.To] == c {
			r.edges = append(r.edges, i)
		}
	}
	if len(r.edges) == 0 {
		return r, false
	}
	r.lambda = lambda
	r.idx = make(map[int]int, len(verts))
	for i, v := range verts {
		r.idx[v] = i
	}
	n := len(verts)
	r.dist = make([]rat.Rat, n)
	r.has = make([]bool, n)
	r.dist[0] = rat.Zero()
	r.has[0] = true
	// Longest path relaxation; in an SCC everything is reachable from verts[0].
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, ei := range r.edges {
			e := s.G.Edges[ei]
			u, v := r.idx[e.From], r.idx[e.To]
			if !r.has[u] {
				continue
			}
			cand := r.dist[u].Add(r.weight(s, ei))
			if !r.has[v] || r.dist[v].Less(cand) {
				r.dist[v] = cand
				r.has[v] = true
				changed = true
			}
		}
		if !changed {
			break
		}
		// One more relaxation round would still improve: positive cycle.
		r.positive = iter == n-1
	}
	return r, true
}

// weight is the reduced weight of system edge ei.
func (r *reduced) weight(s *System, ei int) rat.Rat {
	return s.Cost[ei].Sub(r.lambda.MulInt(int64(s.Tokens[ei])))
}

// tightEdge returns the local endpoints of system edge ei and whether it is
// tight: both ends reached and dist[u] + w == dist[v].
func (r *reduced) tightEdge(s *System, ei int) (u, v int, ok bool) {
	e := s.G.Edges[ei]
	u, v = r.idx[e.From], r.idx[e.To]
	return u, v, r.has[u] && r.has[v] && r.dist[u].Add(r.weight(s, ei)).Equal(r.dist[v])
}

// tightCycleWitness returns a cycle (edge indices in the full system) whose
// reduced weight under λ is zero, assuming VerifyRatio(λ) holds.
func (s *System) tightCycleWitness(lambda rat.Rat) []int {
	comp, ncomp := s.G.SCC()
	for c := 0; c < ncomp; c++ {
		if w := s.sccTightWitness(comp, c, lambda); w != nil {
			return w
		}
	}
	return nil
}

func (s *System) sccTightWitness(comp []int, c int, lambda rat.Rat) []int {
	r, ok := s.reducedLongest(comp, c, lambda)
	if !ok {
		return nil
	}
	n, idx := len(r.dist), r.idx
	// Build tight subgraph, then walk it to find a cycle.
	tightOut := make([][]int, n) // local vertex -> tight edge indices (global)
	for _, ei := range r.edges {
		if u, _, ok := r.tightEdge(s, ei); ok {
			tightOut[u] = append(tightOut[u], ei)
		}
	}
	// DFS for a cycle in the tight subgraph.
	state := make([]int, n) // 0 unvisited, 1 on stack, 2 done
	parentEdge := make([]int, n)
	for i := range parentEdge {
		parentEdge[i] = -1
	}
	var walk func(u int) []int
	walk = func(u int) []int {
		state[u] = 1
		for _, ei := range tightOut[u] {
			v := idx[s.G.Edges[ei].To]
			switch state[v] {
			case 0:
				parentEdge[v] = ei
				if cyc := walk(v); cyc != nil {
					return cyc
				}
			case 1:
				// Found a cycle closing at v: unwind from u back to v.
				cyc := []int{ei}
				for x := u; x != v; {
					pe := parentEdge[x]
					cyc = append([]int{pe}, cyc...)
					x = idx[s.G.Edges[pe].From]
				}
				return cyc
			}
		}
		state[u] = 2
		return nil
	}
	for u := 0; u < n; u++ {
		if state[u] == 0 {
			if cyc := walk(u); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}
