package cycles

import (
	"fmt"

	"repro/internal/rat"
)

// MaxRatio computes the maximum cycle ratio λ* = max_C cost(C)/tokens(C)
// exactly, by contracting token-carrying edges and running Karp's maximum
// mean cycle algorithm on the contracted graph.
//
// Requirements: the zero-token subgraph must be acyclic (Validate enforces
// this; it holds for every TPN the paper constructs, because all token-free
// places advance lexicographically in (row, column)). Returns ErrNoCycle if
// the graph is acyclic.
//
// The witness cycle in the result is expressed as edge indices of the
// original system.
//
// MaxRatio allocates a fresh Workspace per call; hot loops should hold a
// Workspace (or a core.Solver, which owns one) and call Workspace.MaxRatio
// to amortize the scratch across evaluations.
func (s *System) MaxRatio() (Result, error) {
	var ws Workspace
	return ws.MaxRatio(s)
}

// MaxRatio computes the maximum cycle ratio of s on the workspace's reused
// scratch. It is the same algorithm as System.MaxRatio with the same
// iteration orders, so results — ratio and witness cycle — are
// bit-identical; only the allocation behaviour differs. s is not mutated.
func (ws *Workspace) MaxRatio(s *System) (Result, error) {
	if err := negativeCost(s); err != nil {
		return Result{}, err
	}
	if !ws.acyclic(s, true) {
		return Result{}, ErrDeadlock
	}
	// No separate whole-graph acyclicity pass: an acyclic graph has only
	// trivial components, none of which holds a token edge, so the loop
	// below finds no cycle and reports ErrNoCycle.
	comp, ncomp := ws.scc(s)
	best := Result{}
	found := false
	for c := 0; c < ncomp; c++ {
		r, ok, err := ws.maxRatioSCC(s, comp, c)
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
	if best.Cycle == nil {
		// Tie-breaking in Karp's witness walk can fail to isolate a critical
		// cycle; recover one from the tight subgraph at the (correct) ratio.
		best.Cycle = s.tightCycleWitness(best.Ratio)
	}
	return best, nil
}

// contractedEdge is an edge of the token-contracted graph: it starts with a
// token edge of the original system and follows a longest zero-token path.
type contractedEdge struct {
	from, to int     // indices into the token-edge list
	cost     rat.Rat // token edge cost + longest zero-token path cost
	tokens   int64
	// path reconstruction: the token edge index, then the zero-token edge
	// indices of the longest path from its head to the target's tail, stored
	// in the workspace arena.
	tokenEdge        int
	pathOff, pathLen int
}

// maxRatioSCC contracts one strongly connected component and runs Karp on it.
func (ws *Workspace) maxRatioSCC(s *System, comp []int, c int) (Result, bool, error) {
	n, ok, err := ws.contractScaffold(s, comp, c)
	if !ok || err != nil {
		return Result{}, false, err
	}

	// For each token edge, longest zero-token path from its head to every
	// reachable vertex (DAG DP), generating contracted edges to every token
	// edge tail reached.
	nt := len(ws.tokenEdges)
	ws.dist = growRats(ws.dist, n)
	ws.has = growBools(ws.has, n)
	ws.pred = growInts(ws.pred, n)
	ws.cedges = ws.cedges[:0]
	ws.arena = ws.arena[:0]
	for pos, ei := range ws.tokenEdges {
		head := ws.localID[s.G.Edges[ei].To]
		for i := 0; i < n; i++ {
			ws.has[i] = false
			ws.pred[i] = -1
		}
		ws.has[head] = true
		ws.dist[head] = rat.Zero()
		for _, u := range ws.order[ws.orderPos[head]:] {
			if !ws.has[u] {
				continue
			}
			for t := ws.zeroStart[u]; t < ws.zeroStart[u+1]; t++ {
				zei := ws.zeroEdges[ws.zeroItems[t]]
				to := ws.localID[s.G.Edges[zei].To]
				cand := ws.dist[u].Add(s.Cost[zei])
				if !ws.has[to] || ws.dist[to].Less(cand) {
					ws.dist[to] = cand
					ws.has[to] = true
					ws.pred[to] = zei
				}
			}
		}
		for v := 0; v < n; v++ {
			if !ws.has[v] {
				continue
			}
			for t := ws.tailStart[v]; t < ws.tailStart[v+1]; t++ {
				toPos := ws.tailItems[t]
				// Reconstruct the zero-token path head -> v into the arena.
				ws.pathTmp = ws.pathTmp[:0]
				for x := v; ws.pred[x] != -1; {
					pe := ws.pred[x]
					ws.pathTmp = append(ws.pathTmp, pe)
					x = ws.localID[s.G.Edges[pe].From]
				}
				off := len(ws.arena)
				for i := len(ws.pathTmp) - 1; i >= 0; i-- {
					ws.arena = append(ws.arena, ws.pathTmp[i])
				}
				ws.cedges = append(ws.cedges, contractedEdge{
					from:      pos,
					to:        toPos,
					cost:      s.Cost[ei].Add(ws.dist[v]),
					tokens:    int64(s.Tokens[ei]),
					tokenEdge: ei,
					pathOff:   off,
					pathLen:   len(ws.pathTmp),
				})
			}
		}
	}
	if len(ws.cedges) == 0 {
		return Result{}, false, nil
	}

	// Expand multi-token contracted edges so Karp's uniform-token assumption
	// holds. (The paper's TPNs only use single-token places; this keeps the
	// engine general.)
	nverts := ws.expandTokens(nt)
	lambda, cyc, ok := ws.karpMaxMean(nverts)
	if !ok {
		return Result{}, false, nil
	}
	// Translate the contracted witness cycle back to original edges.
	var witness []int
	for _, ce := range cyc {
		if ce.tokenEdge >= 0 {
			witness = append(witness, ce.tokenEdge)
			witness = append(witness, ws.arena[ce.pathOff:ce.pathOff+ce.pathLen]...)
		}
	}
	return Result{Ratio: lambda, Cycle: witness}, true, nil
}

// contractScaffold builds the structural state both the exact and the float
// contraction sweeps run on: the component's token/zero edge lists, the local
// vertex numbering, the zero-token DAG adjacency with its topological order
// (ws.order), and the token-edge tail CSR. Keeping it in one place guarantees
// the two sweeps walk identical structures in identical orders — the float
// path's error bounds are only claims about the exact path if the candidate
// sets match edge for edge. It returns the local vertex count; ok is false
// when the component carries no token edge (no cycle to contribute).
func (ws *Workspace) contractScaffold(s *System, comp []int, c int) (n int, ok bool, err error) {
	// Intra-component edges, split into token edges and zero-token edges.
	ws.tokenEdges = ws.tokenEdges[:0]
	ws.zeroEdges = ws.zeroEdges[:0]
	for i, e := range s.G.Edges {
		if comp[e.From] != c || comp[e.To] != c {
			continue
		}
		if s.Tokens[e.ID] > 0 {
			ws.tokenEdges = append(ws.tokenEdges, i)
		} else {
			ws.zeroEdges = append(ws.zeroEdges, i)
		}
	}
	if len(ws.tokenEdges) == 0 {
		// Component with no token edge: acyclic by liveness (validated), so
		// it contributes no cycle.
		return 0, false, nil
	}

	// Map component vertices to local ids (first-seen order: token edge
	// endpoints, then zero edge endpoints — matching the historical order).
	ws.epoch++
	ws.localID = growInts(ws.localID, s.G.N)
	ws.localStamp = growInts(ws.localStamp, s.G.N)
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
	for _, ei := range ws.tokenEdges {
		local(s.G.Edges[ei].From)
		local(s.G.Edges[ei].To)
	}
	for _, ei := range ws.zeroEdges {
		local(s.G.Edges[ei].From)
		local(s.G.Edges[ei].To)
	}
	n = len(ws.verts)

	// Zero-token DAG adjacency over local vertices and its topological order.
	nz := len(ws.zeroEdges)
	ws.zeroStart = growInts(ws.zeroStart, n+1)
	ws.zeroItems = growInts(ws.zeroItems, nz)
	ws.keyTmp = growInts(ws.keyTmp, nz)
	ws.valTmp = growInts(ws.valTmp, nz)
	for j, ei := range ws.zeroEdges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
		ws.valTmp[j] = j
	}
	ws.fillCSR(ws.zeroStart, ws.zeroItems, n, ws.keyTmp[:nz], ws.valTmp[:nz])
	// Successor view of the same CSR (parallel to zeroItems), so the one
	// Kahn implementation serves both the acyclicity checks and this
	// topological order — the ordering discipline witness tie-breaking
	// depends on lives in exactly one place.
	ws.zeroSucc = growInts(ws.zeroSucc, nz)
	for t := 0; t < nz; t++ {
		ws.zeroSucc[t] = ws.localID[s.G.Edges[ws.zeroEdges[ws.zeroItems[t]]].To]
	}
	if ws.kahn(n, ws.zeroStart, ws.zeroSucc) != n {
		return 0, false, ErrDeadlock
	}
	// A DP from a token edge's head only reaches vertices after the head in
	// this order, so both sweeps start their DAG pass at the head's position.
	ws.orderPos = growInts(ws.orderPos, n)
	for k, v := range ws.order {
		ws.orderPos[v] = k
	}

	// Tails of token edges, for quick "is this vertex a contraction target".
	nt := len(ws.tokenEdges)
	ws.tailStart = growInts(ws.tailStart, n+1)
	ws.tailItems = growInts(ws.tailItems, nt)
	ws.keyTmp = growInts(ws.keyTmp, nt)
	ws.valTmp = growInts(ws.valTmp, nt)
	for j, ei := range ws.tokenEdges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
		ws.valTmp[j] = j
	}
	ws.fillCSR(ws.tailStart, ws.tailItems, n, ws.keyTmp[:nt], ws.valTmp[:nt])
	return n, true, nil
}

// meanEdge is an edge for Karp's algorithm: weight per single token.
type meanEdge struct {
	from, to  int
	cost      rat.Rat
	tokenEdge int // original token edge (or -1 for expansion filler)
	// zero-token path following the token edge, in the workspace arena
	pathOff, pathLen int
}

// expandTokens converts contracted edges with k>1 tokens into k unit edges
// through fresh intermediate vertices (cost on the first hop). It fills
// ws.medges and returns the vertex count of the expanded graph.
func (ws *Workspace) expandTokens(n int) int {
	ws.medges = ws.medges[:0]
	for _, ce := range ws.cedges {
		if ce.tokens == 1 {
			ws.medges = append(ws.medges, meanEdge{ce.from, ce.to, ce.cost, ce.tokenEdge, ce.pathOff, ce.pathLen})
			continue
		}
		prev := ce.from
		for k := int64(0); k < ce.tokens; k++ {
			to := ce.to
			if k < ce.tokens-1 {
				to = n
				n++
			}
			cost := rat.Zero()
			te := -1
			off, ln := 0, 0
			if k == 0 {
				cost = ce.cost
				te = ce.tokenEdge
				off, ln = ce.pathOff, ce.pathLen
			}
			ws.medges = append(ws.medges, meanEdge{prev, to, cost, te, off, ln})
			prev = to
		}
	}
	return n
}

// karpMaxMean computes the maximum mean-weight cycle over ws.medges, exactly,
// together with a witness cycle. It handles graphs that are not strongly
// connected by working per SCC.
func (ws *Workspace) karpMaxMean(n int) (rat.Rat, []meanEdge, bool) {
	m := len(ws.medges)
	ws.karpStart = growInts(ws.karpStart, n+1)
	ws.karpSucc = growInts(ws.karpSucc, m)
	ws.keyTmp = growInts(ws.keyTmp, m)
	ws.valTmp = growInts(ws.valTmp, m)
	for j := range ws.medges {
		ws.keyTmp[j] = ws.medges[j].from
		ws.valTmp[j] = ws.medges[j].to
	}
	ws.fillCSR(ws.karpStart, ws.karpSucc, n, ws.keyTmp[:m], ws.valTmp[:m])
	comp, ncomp := ws.sccKarp.run(n, ws.karpStart, ws.karpSucc)
	best := rat.Zero()
	var bestCycle []meanEdge
	found := false
	for c := 0; c < ncomp; c++ {
		lambda, cyc, ok := ws.karpSCC(comp, c, n)
		if ok && (!found || best.Less(lambda)) {
			best, bestCycle, found = lambda, cyc, true
		}
	}
	return best, bestCycle, found
}

// karpSCC runs Karp's algorithm on one strongly connected component of the
// expanded contracted graph.
func (ws *Workspace) karpSCC(comp []int, c, nverts int) (rat.Rat, []meanEdge, bool) {
	ws.karpVerts = ws.karpVerts[:0]
	ws.karpID = growInts(ws.karpID, nverts)
	for v := 0; v < nverts; v++ {
		ws.karpID[v] = -1
		if comp[v] == c {
			ws.karpID[v] = len(ws.karpVerts)
			ws.karpVerts = append(ws.karpVerts, v)
		}
	}
	ws.karpWithin = ws.karpWithin[:0]
	for i, e := range ws.medges {
		if comp[e.from] == c && comp[e.to] == c {
			ws.karpWithin = append(ws.karpWithin, i)
		}
	}
	if len(ws.karpWithin) == 0 {
		return rat.Zero(), nil, false // trivial SCC without self loop
	}
	n := len(ws.karpVerts)

	// D[k][v] = max weight of a k-edge progression from source to v,
	// flattened row-major into reused tables.
	size := (n + 1) * n
	ws.kD = growRats(ws.kD, size)
	ws.kHas = growBools(ws.kHas, size)
	ws.kParent = growInts(ws.kParent, size)
	for i := 0; i < size; i++ {
		ws.kHas[i] = false
		ws.kParent[i] = -1
	}
	ws.kHas[0] = true
	ws.kD[0] = rat.Zero()
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for _, mi := range ws.karpWithin {
			me := &ws.medges[mi]
			u, v := ws.karpID[me.from], ws.karpID[me.to]
			if !ws.kHas[prev+u] {
				continue
			}
			cand := ws.kD[prev+u].Add(me.cost)
			if !ws.kHas[row+v] || ws.kD[row+v].Less(cand) {
				ws.kD[row+v] = cand
				ws.kHas[row+v] = true
				ws.kParent[row+v] = mi
			}
		}
	}

	// λ* = max_v min_k (D[n][v]-D[k][v])/(n-k).
	found := false
	best := rat.Zero()
	bestV := -1
	last := n * n
	for v := 0; v < n; v++ {
		if !ws.kHas[last+v] {
			continue
		}
		inner := rat.Zero()
		innerSet := false
		for k := 0; k < n; k++ {
			if !ws.kHas[k*n+v] {
				continue
			}
			cand := ws.kD[last+v].Sub(ws.kD[k*n+v]).DivInt(int64(n - k))
			if !innerSet || cand.Less(inner) {
				inner = cand
				innerSet = true
			}
		}
		if !innerSet {
			continue
		}
		if !found || best.Less(inner) {
			best = inner
			bestV = v
			found = true
		}
	}
	if !found {
		return rat.Zero(), nil, false
	}

	// Witness: walk the n-edge progression ending at bestV back; some vertex
	// repeats, and the enclosed sub-walk is a maximum mean cycle.
	ws.pathV = growInts(ws.pathV, n+1) // local vertices along the progression
	ws.pathE = growInts(ws.pathE, n+1) // edge arriving at pathV[k] (medge index)
	ws.pathV[n] = bestV
	for k := n; k >= 1; k-- {
		mi := ws.kParent[k*n+ws.pathV[k]]
		ws.pathE[k] = mi
		ws.pathV[k-1] = ws.karpID[ws.medges[mi].from]
	}
	ws.seenPos = growInts(ws.seenPos, n)
	for i := 0; i < n; i++ {
		ws.seenPos[i] = -1
	}
	var cyc []meanEdge
	for k := 0; k <= n; k++ {
		if j := ws.seenPos[ws.pathV[k]]; j >= 0 {
			for t := j + 1; t <= k; t++ {
				cyc = append(cyc, ws.medges[ws.pathE[t]])
			}
			break
		}
		ws.seenPos[ws.pathV[k]] = k
	}
	if len(cyc) == 0 {
		panic(fmt.Sprintf("cycles: karp witness reconstruction failed (n=%d)", n))
	}
	// The enclosed cycle is not guaranteed to be *the* critical one in rare
	// tie situations; recompute its mean and, if it is below λ*, fall back to
	// a tight-cycle search by the caller. We signal that by returning the
	// ratio only; callers that need certified witnesses use VerifyRatio.
	mean := rat.Zero()
	for _, e := range cyc {
		mean = mean.Add(e.cost)
	}
	mean = mean.DivInt(int64(len(cyc)))
	if !mean.Equal(best) {
		// Keep λ* (which is correct) but drop the unreliable witness.
		return best, nil, true
	}
	return best, cyc, true
}
