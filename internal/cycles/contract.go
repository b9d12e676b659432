package cycles

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
//
// The sweep runs in one of two arithmetics, chosen by the input alone:
// scaled int64 integers when s passes the bound of scaleCosts (every
// Table 2 system does), exact rationals otherwise. Both make the same
// comparisons on the same values, so they pick the same maxima, the same
// predecessors and the same witness; the ratio is formed through rat either
// way, whose canonical form makes it bit-identical too.
func (ws *Workspace) MaxRatio(s *System) (Result, error) {
	if err := negativeCost(s); err != nil {
		return Result{}, err
	}
	if !ws.acyclic(s, true) {
		return Result{}, ErrDeadlock
	}
	ws.intMode = !ws.forceRat && ws.scaleCosts(s)
	// No separate whole-graph acyclicity pass: an acyclic graph has only
	// trivial components, none of which holds a token edge, so the loop
	// below finds no cycle and reports ErrNoCycle.
	comp, ncomp := ws.scc(s)
	best := Result{}
	found := false
	for c := 0; c < ncomp; c++ {
		lambda, witnessed, ok, err := ws.maxRatioSCC(s, comp, c)
		if err != nil {
			return Result{}, err
		}
		if ok && (!found || best.Ratio.Less(lambda)) {
			best = Result{Ratio: lambda}
			if witnessed {
				// The contraction state of component c is still in the
				// workspace: rebuild the witness before the next component
				// overwrites it.
				best.Cycle = ws.witness(s)
			}
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

// intBound caps the scaled int64 arithmetic; see scaleCosts.
const intBound = 1 << 62

// scaleCosts decides whether the exact sweep may run on scaled int64 costs
// and, if so, fills ws.icost with them. With D the lcm of the cost
// denominators, edge i costs ws.icost[i]/D. Invariant of the int64 path:
//
//	C·(N+1) ≤ 2^62, with C = Σ scaled costs and N = nt + (T−nt)·nt,
//
// where nt counts the token edges and T sums their tokens. Costs are
// non-negative and a zero-token path is simple, so a DP distance and a
// contracted edge cost are at most C. N bounds the vertex count of every
// token-expanded Karp graph (nt contracted vertices, plus tokens−1 fresh
// ones for each of the at most nt contracted edges leaving a token edge;
// N = T when every token edge carries one token), so every Karp table
// entry is at most N·C and every difference of two lies in ±N·C. Under the
// invariant the DP relax and the Karp table are plain int64 adds and
// compares that cannot overflow; only the λ cross products need 128 bits.
// ok is false — the rational loops run — for big-rational costs, an lcm
// beyond int64, or sums past the bound.
func (ws *Workspace) scaleCosts(s *System) bool {
	d := int64(1)
	for _, c := range s.Cost {
		if c.IsBig() {
			return false
		}
		if cd := c.Den(); cd != 1 && d%cd != 0 {
			hi, lo := bits.Mul64(uint64(d/rat.GCDInt(d, cd)), uint64(cd))
			if hi != 0 || lo > math.MaxInt64 {
				return false
			}
			d = int64(lo)
		}
	}
	ws.icost = grow(ws.icost, len(s.Cost))
	var sum uint64
	for i, c := range s.Cost {
		hi, lo := bits.Mul64(uint64(c.Num()), uint64(d/c.Den()))
		if hi != 0 || lo > intBound {
			return false
		}
		ws.icost[i] = int64(lo)
		if sum += lo; sum > intBound {
			return false
		}
	}
	var nt, excess uint64 // token edges, and tokens beyond one per token edge
	for _, tk := range s.Tokens {
		if tk > 0 {
			nt++
			excess += uint64(tk - 1)
		}
	}
	hi, verts := bits.Mul64(excess, nt)
	verts, carry := bits.Add64(verts, nt+1, 0)
	if hi != 0 || carry != 0 {
		return false
	}
	if hi, lo := bits.Mul64(sum, verts); hi != 0 || lo > intBound {
		return false
	}
	ws.scale = d
	return true
}

// contractedEdge is an edge of the token-contracted graph: token edge
// tokenEdges[from] followed by a longest zero-token path to local vertex v,
// the tail of token edge tokenEdges[to]. Its cost lives in ws.ceInt or
// ws.ceRat; the path itself is not stored (see witness).
type contractedEdge struct{ from, to, v int }

// hop is an edge of the token-expanded contracted graph Karp runs on: every
// hop carries one token, and ce is the contracted edge whose cost it
// carries (-1 for the zero-cost hops of a multi-token edge).
type hop struct{ from, to, ce int }

// maxRatioSCC contracts one strongly connected component and runs Karp on
// it. ok reports a cycle; witnessed reports that ws.critCyc holds a
// critical cycle of the contracted graph, for witness.
func (ws *Workspace) maxRatioSCC(s *System, comp []int, c int) (lambda rat.Rat, witnessed, ok bool, err error) {
	n, ok, err := ws.contractScaffold(s, comp, c)
	if !ok || err != nil {
		return rat.Rat{}, false, false, err
	}

	// For each token edge, longest zero-token path from its head to every
	// reachable vertex (DAG DP), generating contracted edges to every token
	// edge tail reached.
	ws.has = grow(ws.has, n)
	ws.pred = grow(ws.pred, n)
	if ws.intMode {
		ws.idist = grow(ws.idist, n)
		nz := len(ws.zeroEdges)
		ws.zc = grow(ws.zc, nz)
		for t, ei := range ws.zeroEdge[:nz] {
			ws.zc[t] = ws.icost[ei]
		}
		ws.ceInt = ws.ceInt[:0]
	} else {
		ws.dist = grow(ws.dist, n)
		ws.ceRat = ws.ceRat[:0]
	}
	ws.cedges = ws.cedges[:0]
	for pos, ei := range ws.tokenEdges {
		ws.zeroDP(s, ws.localID[s.G.Edges[ei].To], n)
		for _, v := range ws.tailVerts {
			if !ws.has[v] {
				continue
			}
			for t := ws.tailStart[v]; t < ws.tailStart[v+1]; t++ {
				ws.cedges = append(ws.cedges, contractedEdge{from: pos, to: ws.tailItems[t], v: v})
				if ws.intMode {
					ws.ceInt = append(ws.ceInt, ws.icost[ei]+ws.idist[v])
				} else {
					ws.ceRat = append(ws.ceRat, s.Cost[ei].Add(ws.dist[v]))
				}
			}
		}
	}
	if len(ws.cedges) == 0 {
		return rat.Rat{}, false, false, nil
	}

	// Expand multi-token contracted edges so Karp's uniform-token assumption
	// holds. (The paper's TPNs only use single-token places; this keeps the
	// engine general.)
	var nv int
	ws.hops, nv = expandTokens(ws.hops[:0], ws.cedges, ws.tokenEdges, s.Tokens)
	lambda, witnessed, ok = ws.karpMaxMean(nv)
	return lambda, witnessed, ok, nil
}

// zeroDP runs the longest zero-token path DP from local vertex head over
// the component's DAG, relaxing the edges out of the vertices before
// position end of the topological order: afterwards has marks the vertices
// reached, dist (or idist) holds their distances, and pred the CSR item of
// the zero edge that last improved each one (-1 at head). Entries are final
// for every vertex up to order[end], whose predecessors all come earlier.
// The contraction sweep runs it once per token edge over the whole order,
// the witness rebuild once per token edge of the critical cycle, up to the
// path's end; it is the same DP with the same order and tie-breaks both
// times.
func (ws *Workspace) zeroDP(s *System, head, end int) {
	clear(ws.has[:len(ws.verts)])
	ws.has[head] = true
	ws.pred[head] = -1
	order := ws.order[ws.orderPos[head]:end]
	if ws.intMode {
		ws.zeroDPInt(head, order)
	} else {
		ws.zeroDPRat(s, head, order)
	}
}

// zeroDPInt is zeroDP's relax loop on scaled int64 costs (no overflow: see
// scaleCosts).
func (ws *Workspace) zeroDPInt(head int, order []int) {
	dist, has, pred := ws.idist, ws.has, ws.pred
	dist[head] = 0
	for _, u := range order {
		if !has[u] {
			continue
		}
		du := dist[u]
		for t := ws.zeroStart[u]; t < ws.zeroStart[u+1]; t++ {
			to := ws.zeroSucc[t]
			cand := du + ws.zc[t]
			if !has[to] || dist[to] < cand {
				dist[to] = cand
				has[to] = true
				pred[to] = t
			}
		}
	}
}

// zeroDPRat is zeroDP's relax loop in exact rationals.
func (ws *Workspace) zeroDPRat(s *System, head int, order []int) {
	dist, has, pred := ws.dist, ws.has, ws.pred
	dist[head] = rat.Zero()
	for _, u := range order {
		if !has[u] {
			continue
		}
		for t := ws.zeroStart[u]; t < ws.zeroStart[u+1]; t++ {
			to := ws.zeroSucc[t]
			cand := dist[u].Add(s.Cost[ws.zeroEdge[t]])
			if !has[to] || dist[to].Less(cand) {
				dist[to] = cand
				has[to] = true
				pred[to] = t
			}
		}
	}
}

// witness translates the critical contracted cycle in ws.critCyc back to
// system edges: per contracted edge, its token edge, then the zero-token
// path, recovered by re-running that token edge's zeroDP and walking pred
// back. The sweep kept no paths; only the cycle's token edges pay the DP a
// second time. The result is allocated once, at its final size.
func (ws *Workspace) witness(s *System) []int {
	ws.witTmp = ws.witTmp[:0]
	for _, hi := range ws.critCyc {
		ce := ws.hops[hi].ce
		if ce < 0 {
			continue
		}
		e := ws.cedges[ce]
		ei := ws.tokenEdges[e.from]
		ws.witTmp = append(ws.witTmp, ei)
		ws.zeroDP(s, ws.localID[s.G.Edges[ei].To], ws.orderPos[e.v])
		start := len(ws.witTmp)
		for x := e.v; ws.pred[x] != -1; {
			ze := ws.zeroEdge[ws.pred[x]]
			ws.witTmp = append(ws.witTmp, ze)
			x = ws.localID[s.G.Edges[ze].From]
		}
		slices.Reverse(ws.witTmp[start:])
	}
	return append(make([]int, 0, len(ws.witTmp)), ws.witTmp...)
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
	ws.zeroStart = grow(ws.zeroStart, n+1)
	ws.zeroEdge = grow(ws.zeroEdge, nz)
	ws.keyTmp = grow(ws.keyTmp, nz)
	for j, ei := range ws.zeroEdges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
	}
	ws.fillCSR(ws.zeroStart, ws.zeroEdge, n, ws.keyTmp[:nz], ws.zeroEdges)
	// Successor view of the same CSR (parallel to zeroEdge), so the one Kahn
	// implementation serves both the acyclicity checks and this topological
	// order — the ordering discipline witness tie-breaking depends on lives
	// in exactly one place.
	ws.zeroSucc = grow(ws.zeroSucc, nz)
	for t, ei := range ws.zeroEdge[:nz] {
		ws.zeroSucc[t] = ws.localID[s.G.Edges[ei].To]
	}
	if ws.kahn(n, ws.zeroStart, ws.zeroSucc) != n {
		return 0, false, ErrDeadlock
	}
	// A DP from a token edge's head only reaches vertices after the head in
	// this order, so both sweeps start their DAG pass at the head's position.
	ws.orderPos = grow(ws.orderPos, n)
	for k, v := range ws.order {
		ws.orderPos[v] = k
	}

	// Tails of token edges, for quick "is this vertex a contraction target",
	// and the tail vertices in ascending order, the order both sweeps emit
	// contracted edges in.
	nt := len(ws.tokenEdges)
	ws.tailStart = grow(ws.tailStart, n+1)
	ws.tailItems = grow(ws.tailItems, nt)
	ws.keyTmp = grow(ws.keyTmp, nt)
	ws.valTmp = grow(ws.valTmp, nt)
	for j, ei := range ws.tokenEdges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
		ws.valTmp[j] = j
	}
	ws.fillCSR(ws.tailStart, ws.tailItems, n, ws.keyTmp[:nt], ws.valTmp[:nt])
	ws.tailVerts = ws.tailVerts[:0]
	for v := 0; v < n; v++ {
		if ws.tailStart[v] < ws.tailStart[v+1] {
			ws.tailVerts = append(ws.tailVerts, v)
		}
	}
	return n, true, nil
}

// expandTokens appends to hops the token expansion of cedges: a contracted
// edge leaving a token edge with k > 1 tokens becomes k unit hops through
// fresh vertices (numbered from len(tokenEdges) on), its cost on the first
// hop. It also returns the vertex count of the expanded graph.
func expandTokens(hops []hop, cedges []contractedEdge, tokenEdges, tokens []int) ([]hop, int) {
	nv := len(tokenEdges)
	for i, ce := range cedges {
		k := tokens[tokenEdges[ce.from]]
		prev := ce.from
		for h := 0; h < k; h++ {
			to := ce.to
			if h < k-1 {
				to = nv
				nv++
			}
			src := -1
			if h == 0 {
				src = i
			}
			hops = append(hops, hop{prev, to, src})
			prev = to
		}
	}
	return hops, nv
}

// hopSCC computes the strongly connected components of the nv-vertex
// expanded graph in ws.hops.
func (ws *Workspace) hopSCC(nv int) ([]int, int) {
	m := len(ws.hops)
	ws.karpStart = grow(ws.karpStart, nv+1)
	ws.karpSucc = grow(ws.karpSucc, m)
	ws.keyTmp = grow(ws.keyTmp, m)
	ws.valTmp = grow(ws.valTmp, m)
	for j, e := range ws.hops {
		ws.keyTmp[j], ws.valTmp[j] = e.from, e.to
	}
	ws.fillCSR(ws.karpStart, ws.karpSucc, nv, ws.keyTmp[:m], ws.valTmp[:m])
	return ws.sccKarp.run(nv, ws.karpStart, ws.karpSucc)
}

// karpMaxMean computes the maximum mean-weight cycle over the nv-vertex
// graph in ws.hops exactly, per SCC. witnessed reports that ws.critCyc
// holds a maximum mean cycle (hop indices).
func (ws *Workspace) karpMaxMean(nv int) (best rat.Rat, witnessed, found bool) {
	comp, ncomp := ws.hopSCC(nv)
	for c := 0; c < ncomp; c++ {
		lambda, cyc, ok := ws.karpSCC(comp, c, nv)
		if ok && (!found || best.Less(lambda)) {
			best, found = lambda, true
			witnessed = cyc
			if cyc {
				ws.critCyc = append(ws.critCyc[:0], ws.kcyc...)
			}
		}
	}
	return best, witnessed, found
}

// karpSCC runs Karp's algorithm on one strongly connected component of the
// expanded contracted graph. cyc reports that ws.kcyc holds a cycle of mean
// λ*.
func (ws *Workspace) karpSCC(comp []int, c, nverts int) (lambda rat.Rat, cyc, ok bool) {
	n := 0 // the component's vertex count
	ws.karpID = grow(ws.karpID, nverts)
	for v := 0; v < nverts; v++ {
		ws.karpID[v] = -1
		if comp[v] == c {
			ws.karpID[v] = n
			n++
		}
	}
	ws.karpWithin = ws.karpWithin[:0]
	ws.karpU, ws.karpV = ws.karpU[:0], ws.karpV[:0]
	for i, e := range ws.hops {
		if comp[e.from] == c && comp[e.to] == c {
			ws.karpWithin = append(ws.karpWithin, i)
			ws.karpU = append(ws.karpU, ws.karpID[e.from])
			ws.karpV = append(ws.karpV, ws.karpID[e.to])
		}
	}
	if len(ws.karpWithin) == 0 {
		return rat.Rat{}, false, false // trivial SCC without self loop
	}

	// D[k][v] = max weight of a k-edge progression from source to v,
	// flattened row-major into reused tables; parent[k][v] is the hop that
	// last improved it.
	size := (n + 1) * n
	ws.kHas = grow(ws.kHas, size)
	ws.kParent = grow(ws.kParent, size)
	clear(ws.kHas[:size])
	ws.kHas[0] = true
	var bestV int
	if ws.intMode {
		lambda, bestV, ok = ws.karpInt(n)
	} else {
		lambda, bestV, ok = ws.karpRat(n)
	}
	if !ok {
		return rat.Rat{}, false, false
	}

	// Witness: walk the n-edge progression ending at bestV back; some vertex
	// repeats, and the enclosed sub-walk is a maximum mean cycle.
	ws.pathV = grow(ws.pathV, n+1) // local vertices along the progression
	ws.pathE = grow(ws.pathE, n+1) // hop arriving at pathV[k]
	ws.pathV[n] = bestV
	for k := n; k >= 1; k-- {
		hi := ws.kParent[k*n+ws.pathV[k]]
		ws.pathE[k] = hi
		ws.pathV[k-1] = ws.karpID[ws.hops[hi].from]
	}
	ws.seenPos = grow(ws.seenPos, n)
	for i := 0; i < n; i++ {
		ws.seenPos[i] = -1
	}
	ws.kcyc = ws.kcyc[:0]
	for k := 0; k <= n; k++ {
		if j := ws.seenPos[ws.pathV[k]]; j >= 0 {
			ws.kcyc = append(ws.kcyc, ws.pathE[j+1:k+1]...)
			break
		}
		ws.seenPos[ws.pathV[k]] = k
	}
	if len(ws.kcyc) == 0 {
		panic(fmt.Sprintf("cycles: karp witness reconstruction failed (n=%d)", n))
	}
	// The enclosed cycle is not guaranteed to be *the* critical one in rare
	// tie situations; recompute its mean and, if it is below λ*, keep λ*
	// (which is correct) but drop the witness — the caller then recovers
	// one from the tight subgraph.
	return lambda, ws.cycleMean().Equal(lambda), true
}

// karpInt fills the Karp table on scaled int64 costs and evaluates
// λ* = max_v min_k (D[n][v]−D[k][v])/(n−k), comparing the fractions by
// 128-bit cross products. No table entry overflows (see scaleCosts).
func (ws *Workspace) karpInt(n int) (rat.Rat, int, bool) {
	size := (n + 1) * n
	D, has, parent := grow(ws.kI, size), ws.kHas, ws.kParent
	ws.kI = D
	cost := grow(ws.kc, len(ws.karpWithin))
	ws.kc = cost
	for j, hi := range ws.karpWithin {
		cost[j] = 0
		if ce := ws.hops[hi].ce; ce >= 0 {
			cost[j] = ws.ceInt[ce]
		}
	}
	D[0] = 0
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for j, hi := range ws.karpWithin {
			u := prev + ws.karpU[j]
			if !has[u] {
				continue
			}
			cand := D[u] + cost[j]
			if v := row + ws.karpV[j]; !has[v] || D[v] < cand {
				D[v] = cand
				has[v] = true
				parent[v] = hi
			}
		}
	}

	found := false
	var bestNum, bestDen int64
	bestV := -1
	last := n * n
	for v := 0; v < n; v++ {
		if !has[last+v] {
			continue
		}
		var num, den int64
		set := false
		for k := 0; k < n; k++ {
			if !has[k*n+v] {
				continue
			}
			cn, cd := D[last+v]-D[k*n+v], int64(n-k)
			if !set || cmpFrac(cn, cd, num, den) < 0 {
				num, den, set = cn, cd, true
			}
		}
		if !set {
			continue
		}
		if !found || cmpFrac(bestNum, bestDen, num, den) < 0 {
			bestNum, bestDen, bestV, found = num, den, v, true
		}
	}
	if !found {
		return rat.Rat{}, -1, false
	}
	return rat.New(bestNum, bestDen).DivInt(ws.scale), bestV, true
}

// karpRat is karpInt in exact rationals.
func (ws *Workspace) karpRat(n int) (rat.Rat, int, bool) {
	size := (n + 1) * n
	D, has, parent := grow(ws.kD, size), ws.kHas, ws.kParent
	ws.kD = D
	D[0] = rat.Zero()
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for j, hi := range ws.karpWithin {
			u := prev + ws.karpU[j]
			if !has[u] {
				continue
			}
			cand := D[u]
			if ce := ws.hops[hi].ce; ce >= 0 {
				cand = cand.Add(ws.ceRat[ce])
			}
			if v := row + ws.karpV[j]; !has[v] || D[v].Less(cand) {
				D[v] = cand
				has[v] = true
				parent[v] = hi
			}
		}
	}

	found := false
	best := rat.Zero()
	bestV := -1
	last := n * n
	for v := 0; v < n; v++ {
		if !has[last+v] {
			continue
		}
		inner := rat.Zero()
		set := false
		for k := 0; k < n; k++ {
			if !has[k*n+v] {
				continue
			}
			cand := D[last+v].Sub(D[k*n+v]).DivInt(int64(n - k))
			if !set || cand.Less(inner) {
				inner, set = cand, true
			}
		}
		if !set {
			continue
		}
		if !found || best.Less(inner) {
			best, bestV, found = inner, v, true
		}
	}
	if !found {
		return rat.Rat{}, -1, false
	}
	return best, bestV, true
}

// cycleMean returns the mean hop cost of the cycle in ws.kcyc.
func (ws *Workspace) cycleMean() rat.Rat {
	hops := int64(len(ws.kcyc))
	if ws.intMode {
		var sum int64
		for _, hi := range ws.kcyc {
			if ce := ws.hops[hi].ce; ce >= 0 {
				sum += ws.ceInt[ce]
			}
		}
		return rat.New(sum, hops).DivInt(ws.scale)
	}
	sum := rat.Zero()
	for _, hi := range ws.kcyc {
		if ce := ws.hops[hi].ce; ce >= 0 {
			sum = sum.Add(ws.ceRat[ce])
		}
	}
	return sum.DivInt(hops)
}

// cmpFrac compares a/b with c/d for b, d > 0 by 128-bit cross products and
// returns -1, 0 or +1.
func cmpFrac(a, b, c, d int64) int {
	sa, sc := cmp.Compare(a, 0), cmp.Compare(c, 0)
	if sa != sc || sa == 0 {
		return cmp.Compare(sa, sc)
	}
	h1, l1 := bits.Mul64(absU(a), uint64(d))
	h2, l2 := bits.Mul64(absU(c), uint64(b))
	if h1 != h2 {
		return sa * cmp.Compare(h1, h2)
	}
	return sa * cmp.Compare(l1, l2)
}

// absU returns |x| as a uint64.
func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}
