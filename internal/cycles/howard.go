package cycles

import (
	"fmt"

	"repro/internal/rat"
)

// MaxRatioHoward computes the maximum cycle ratio with Howard's policy
// iteration, exactly in rational arithmetic. It is the engine the
// (max,+)-algebra literature uses for timed event graphs: it maintains a
// policy (one outgoing edge per vertex), computes the cycle ratio and bias
// values of the induced functional graph, and switches edges until no
// improvement exists. It shares no code with cycle iteration beyond the
// compiler's SCC and liveness staging, so the differential harnesses keep
// it as an independent reference, and BackendAuto routes dense-token
// systems to it.
//
// MaxRatioHoward allocates a fresh Workspace per call; hot loops should hold
// a Workspace (or a core.Solver, which owns one) and call
// Workspace.MaxRatioHoward — or Workspace.MaxRatioBackend for the
// size-dependent automatic choice.
func (s *System) MaxRatioHoward() (Result, error) {
	var ws Workspace
	return ws.MaxRatioHoward(s)
}

// howardScratch owns every table Howard's policy iteration touches: the
// per-SCC edge list and its CSR, the policy vector, the per-vertex cycle
// ratios (λ) and bias values, the functional-graph walk state and the
// witness bookkeeping. Keeping the policy tables in one place — and resetting
// every entry a run reads at the start of that run — is what guarantees a
// Howard call followed by a plan evaluation (or vice versa) on the same
// Workspace can never observe the other engine's leftovers: the two engines
// share only the epoch-stamped localID table and the staging buffers that are rebuilt
// from scratch inside every call.
type howardScratch struct {
	edges  []int // intra-SCC edge indices, ascending
	start  []int // CSR: local vertex -> positions into items
	items  []int // edge indices grouped by local tail vertex
	policy []int // local vertex -> chosen outgoing edge (global index)
	lambda []rat.Rat
	value  []rat.Rat
	state  []int // functional-graph walk: 0 unvisited, 1 in progress, 2 done
	cycOf  []int
	done   []bool
	path   []int // current functional-graph walk
	order  []int // traversal order of one policy cycle
	seen   []int // witness walk: local vertex -> position, -1 = unseen

	cycleRatio  []rat.Rat
	cycleAnchor []int
}

// MaxRatioHoward computes the maximum cycle ratio of s by Howard policy
// iteration on the workspace's reused scratch. The ratio is exact and always
// equals what MaxRatio returns (both engines are exact); the witness cycle
// achieves the ratio but may traverse a different critical cycle when
// several exist. s is not mutated.
func (ws *Workspace) MaxRatioHoward(s *System) (Result, error) {
	if err := negativeCost(s); err != nil {
		return Result{}, err
	}
	if !ws.acyclic(s, true) {
		return Result{}, ErrDeadlock
	}
	if ws.acyclic(s, false) {
		return Result{}, ErrNoCycle
	}
	comp, ncomp := ws.scc(s)
	best := Result{}
	found := false
	for c := 0; c < ncomp; c++ {
		r, ok, err := ws.howardSCC(s, comp, c)
		if err != nil {
			return Result{}, err
		}
		if ok && (!found || best.Ratio.Less(r.Ratio)) {
			best = r
			found = true
		}
	}
	if !found {
		return Result{}, ErrNoCycle
	}
	return best, nil
}

// howardSCC runs policy iteration on one strongly connected component,
// maximizing the cycle ratio, entirely on reused scratch.
func (ws *Workspace) howardSCC(s *System, comp []int, c int) (Result, bool, error) {
	h := &ws.howard
	// Intra-component edges, ascending (the deterministic iteration order
	// every tie-break below inherits).
	h.edges = h.edges[:0]
	for i, e := range s.G.Edges {
		if comp[e.From] == c && comp[e.To] == c {
			h.edges = append(h.edges, i)
		}
	}
	if len(h.edges) == 0 {
		// Trivial SCC without a self loop: contributes no cycle.
		return Result{}, false, nil
	}

	// Local ids in first-seen edge-endpoint order. In an SCC with at least
	// one edge this enumerates exactly the component's vertices.
	ws.epoch++
	ws.localID = grow(ws.localID, s.G.N)
	ws.localStamp = grow(ws.localStamp, s.G.N)
	ws.verts = ws.verts[:0]
	local := func(v int) int {
		if ws.localStamp[v] == ws.epoch {
			return ws.localID[v]
		}
		id := len(ws.verts)
		ws.localStamp[v] = ws.epoch
		ws.localID[v] = id
		ws.verts = append(ws.verts, v)
		return id
	}
	for _, ei := range h.edges {
		local(s.G.Edges[ei].From)
		local(s.G.Edges[ei].To)
	}
	n := len(ws.verts)
	ne := len(h.edges)

	// Outgoing-edge CSR over local vertices.
	h.start = grow(h.start, n+1)
	h.items = grow(h.items, ne)
	ws.keyTmp = grow(ws.keyTmp, ne)
	ws.valTmp = grow(ws.valTmp, ne)
	for j, ei := range h.edges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
		ws.valTmp[j] = ei
	}
	ws.fillCSR(h.start, h.items, n, ws.keyTmp[:ne], ws.valTmp[:ne])

	// Initial policy: first outgoing edge of every vertex. A non-trivial SCC
	// gives every vertex an outgoing intra-SCC edge.
	h.policy = grow(h.policy, n)
	for v := 0; v < n; v++ {
		if h.start[v] == h.start[v+1] {
			return Result{}, false, fmt.Errorf("cycles: vertex %d has no outgoing edge inside its SCC", ws.verts[v])
		}
		h.policy[v] = h.items[h.start[v]]
	}
	h.lambda = grow(h.lambda, n)
	h.value = grow(h.value, n)
	h.state = grow(h.state, n)
	h.cycOf = grow(h.cycOf, n)
	h.done = grow(h.done, n)
	succ := func(ei int) int { return ws.localID[s.G.Edges[ei].To] }

	maxIter := 2*ne*n + 16 // safety cap; Howard terminates far earlier
	for iter := 0; iter < maxIter; iter++ {
		// --- Value determination on the policy (functional) graph. ---
		// Find the cycle each vertex reaches and its ratio.
		for v := 0; v < n; v++ {
			h.state[v] = 0
		}
		h.cycleRatio = h.cycleRatio[:0]
		h.cycleAnchor = h.cycleAnchor[:0]
		for v0 := 0; v0 < n; v0++ {
			if h.state[v0] != 0 {
				continue
			}
			// Walk the functional graph recording the path.
			h.path = h.path[:0]
			v := v0
			for h.state[v] == 0 {
				h.state[v] = 1
				h.path = append(h.path, v)
				v = succ(h.policy[v])
			}
			var cid int
			if h.state[v] == 1 {
				// Found a new policy cycle anchored at v.
				cid = len(h.cycleAnchor)
				cost := rat.Zero()
				tokens := int64(0)
				x := v
				for {
					cost = cost.Add(s.Cost[h.policy[x]])
					tokens += int64(s.Tokens[h.policy[x]])
					x = succ(h.policy[x])
					if x == v {
						break
					}
				}
				if tokens == 0 {
					return Result{}, false, ErrDeadlock
				}
				h.cycleRatio = append(h.cycleRatio, cost.DivInt(tokens))
				h.cycleAnchor = append(h.cycleAnchor, v)
			} else {
				cid = h.cycOf[v]
			}
			for _, u := range h.path {
				h.state[u] = 2
				h.cycOf[u] = cid
			}
		}
		// Values: anchor vertices get 0; propagate backwards along policy
		// edges: value[u] = cost(u) - λ·tokens(u) + value[succ(u)].
		for v := 0; v < n; v++ {
			h.done[v] = false
		}
		for ci := range h.cycleAnchor {
			a := h.cycleAnchor[ci]
			h.value[a] = rat.Zero()
			h.lambda[a] = h.cycleRatio[ci]
			h.done[a] = true
			// Assign values along the cycle in reverse traversal order.
			h.order = h.order[:0]
			x := a
			for {
				h.order = append(h.order, x)
				x = succ(h.policy[x])
				if x == a {
					break
				}
			}
			for i := len(h.order) - 1; i >= 1; i-- {
				u := h.order[i]
				nu := succ(h.policy[u])
				h.lambda[u] = h.cycleRatio[ci]
				h.value[u] = s.Cost[h.policy[u]].Sub(h.lambda[u].MulInt(int64(s.Tokens[h.policy[u]]))).Add(h.value[nu])
				h.done[u] = true
			}
		}
		// Trees hanging off the cycles: iterate until all computed.
		for remaining := true; remaining; {
			remaining = false
			progress := false
			for u := 0; u < n; u++ {
				if h.done[u] {
					continue
				}
				nu := succ(h.policy[u])
				if !h.done[nu] {
					remaining = true
					continue
				}
				h.lambda[u] = h.lambda[nu]
				h.value[u] = s.Cost[h.policy[u]].Sub(h.lambda[u].MulInt(int64(s.Tokens[h.policy[u]]))).Add(h.value[nu])
				h.done[u] = true
				progress = true
			}
			if remaining && !progress {
				return Result{}, false, fmt.Errorf("cycles: howard value determination stuck")
			}
		}

		// --- Policy improvement (two-level lexicographic test). ---
		improved := false
		for u := 0; u < n; u++ {
			for t := h.start[u]; t < h.start[u+1]; t++ {
				ei := h.items[t]
				v := succ(ei)
				if h.lambda[u].Less(h.lambda[v]) {
					h.policy[u] = ei
					improved = true
					continue
				}
				if h.lambda[v].Less(h.lambda[u]) {
					continue
				}
				cand := s.Cost[ei].Sub(h.lambda[u].MulInt(int64(s.Tokens[ei]))).Add(h.value[v])
				if h.value[u].Less(cand) {
					h.policy[u] = ei
					h.value[u] = cand
					improved = true
				}
			}
		}
		if !improved {
			// Converged: the best ratio is the max λ over vertices; its
			// policy cycle is a witness.
			best := h.lambda[0]
			bestV := 0
			for v := 1; v < n; v++ {
				if best.Less(h.lambda[v]) {
					best = h.lambda[v]
					bestV = v
				}
			}
			// Recover the cycle bestV reaches under the final policy. The
			// witness is the only allocation of the call: it escapes into the
			// Result, exactly like MaxRatio's witness.
			h.seen = grow(h.seen, n)
			for v := 0; v < n; v++ {
				h.seen[v] = -1
			}
			h.path = h.path[:0] // reused as the edge walk
			x := bestV
			for {
				if pos := h.seen[x]; pos >= 0 {
					return Result{Ratio: best, Cycle: append([]int(nil), h.path[pos:]...)}, true, nil
				}
				h.seen[x] = len(h.path)
				h.path = append(h.path, h.policy[x])
				x = succ(h.policy[x])
			}
		}
	}
	return Result{}, false, fmt.Errorf("cycles: howard did not converge within iteration cap")
}
