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
// scratch: it compiles s's Plan into the workspace and evaluates it with
// MaxRatioPlan. Results — ratio and witness cycle — are bit-identical to
// System.MaxRatio; only the allocation behaviour differs. s is not mutated.
func (ws *Workspace) MaxRatio(s *System) (Result, error) {
	return ws.MaxRatioPlan(ws.Compile(s), s)
}

// MaxRatioPlan evaluates p, compiled from a system with s's structure, on
// s's costs: the result MaxRatio(s) returns, ratio and witness, bit for
// bit, and its errors.
//
// The sweep runs in one of two arithmetics, chosen by the costs alone:
// scaled int64 integers when s passes the bound of scaleCosts (every
// Table 2 system does), exact rationals otherwise. Both make the same
// comparisons on the same values, so they pick the same maxima, the same
// predecessors and the same witness; the ratio is formed through rat either
// way, whose canonical form makes it bit-identical too.
func (ws *Workspace) MaxRatioPlan(p *Plan, s *System) (Result, error) {
	if err := negativeCost(s); err != nil {
		return Result{}, err
	}
	if p.err != nil {
		return Result{}, p.err
	}
	ws.intMode = !ws.forceRat && ws.scaleCosts(s)
	best := Result{}
	found := false
	for i := range p.comps {
		pc := &p.comps[i]
		lambda, witnessed, ok := ws.sweep(s, pc)
		if ok && (!found || best.Ratio.Less(lambda)) {
			best = Result{Ratio: lambda}
			if witnessed {
				// The component's distances are still in the workspace:
				// rebuild the witness before the next component overwrites
				// them.
				best.Cycle = ws.witness(s, pc)
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
	ws.scale, ws.isum = d, int64(sum)
	return true
}

// Plan is the value-independent half of the contraction sweep for one
// system structure, that is its edge list with endpoints, order and token
// counts. It holds the outcome of the liveness check and, per strongly
// connected component carrying a cycle, the contraction scaffold (token
// edges, zero-token CSR, DAG order), the contracted edges, and the SCCs of
// the token-expanded contracted graph with their hops in local ids.
//
// Compile builds it, and two sweeps read it: the exact one on scaled int64
// costs and the exact one in rationals (MaxRatioPlan picks between the two
// by the costs); the witness
// rebuild walks it back to system edges, and the potential check
// (RatioAtMostPlan) relaxes its token edges and zero-token DAG. Evaluation
// runs only the arithmetic, in the order a fresh compile of the evaluated
// system would give, so a plan compiled from one system serves every
// system of the same structure with bit-identical results. A plan is read-only once compiled
// and may be shared by workspaces.
type Plan struct {
	err   error // structural failure (ErrDeadlock), reported by every evaluation
	comps []planComp
	size  int
}

// planComp is one strongly connected component of the system carrying a
// cycle.
type planComp struct {
	scc        int   // the component's id in Workspace.scc numbering
	n          int   // local vertices
	tokenEdges []int // system edge per token edge; its position is the contracted vertex
	heads      []int // local head vertex per token edge
	tails      []int // local tail vertex per token edge, read by RatioAtMostPlan
	// Zero-token DAG over local vertices: CSR keyed by tail, with the head
	// and the system edge of each item, its topological order and each
	// vertex's position in it.
	zeroStart, zeroSucc, zeroEdge []int
	order, orderPos               []int
	// Contracted edges in emission order; those leaving token edge pos are
	// cedges[cstart[pos]:cstart[pos+1]].
	cstart []int
	cedges []contractedEdge
	karp   []karpComp
}

// contractedEdge is an edge of the token-contracted graph: token edge
// tokenEdges[from] followed by a longest zero-token path to local vertex v,
// the tail of token edge tokenEdges[to]. Its cost is computed per
// evaluation; the path itself is not stored (see witness).
type contractedEdge struct{ from, to, v int }

// karpComp is one SCC of the token-expanded contracted graph Karp runs on,
// with n vertices.
type karpComp struct {
	n    int
	hops []hop
}

// hop is an edge of a karpComp between local vertices: every hop carries
// one token, and ce is the contracted edge whose cost it carries (-1 for the
// zero-cost hops of a multi-token edge).
type hop struct{ from, to, ce int }

// Size is the number of int table entries the plan holds, for callers that
// bound a cache of plans.
func (p *Plan) Size() int { return p.size }

// Compact returns a copy of p in exact-size storage, one backing array per
// element type: a plan to keep beyond the next Compile on its workspace (a
// cache entry) costs a handful of allocations and no append slack.
func (p *Plan) Compact() *Plan {
	var ints, nce, nkc, nh int
	for i := range p.comps {
		pc := &p.comps[i]
		ints += len(pc.tokenEdges) + len(pc.heads) + len(pc.tails) + len(pc.zeroStart) + len(pc.zeroSucc) +
			len(pc.zeroEdge) + len(pc.order) + len(pc.orderPos) + len(pc.cstart)
		nce += len(pc.cedges)
		nkc += len(pc.karp)
		for _, kc := range pc.karp {
			nh += len(kc.hops)
		}
	}
	q := &Plan{err: p.err, size: p.size, comps: make([]planComp, len(p.comps))}
	intArena := make([]int, 0, ints)
	ceArena := make([]contractedEdge, 0, nce)
	kcArena := make([]karpComp, 0, nkc)
	hopArena := make([]hop, 0, nh)
	for i := range p.comps {
		pc, qc := &p.comps[i], &q.comps[i]
		qc.scc, qc.n = pc.scc, pc.n
		qc.tokenEdges = carve(&intArena, pc.tokenEdges)
		qc.heads = carve(&intArena, pc.heads)
		qc.tails = carve(&intArena, pc.tails)
		qc.zeroStart = carve(&intArena, pc.zeroStart)
		qc.zeroSucc = carve(&intArena, pc.zeroSucc)
		qc.zeroEdge = carve(&intArena, pc.zeroEdge)
		qc.order = carve(&intArena, pc.order)
		qc.orderPos = carve(&intArena, pc.orderPos)
		qc.cstart = carve(&intArena, pc.cstart)
		qc.cedges = carve(&ceArena, pc.cedges)
		qc.karp = carve(&kcArena, pc.karp)
		for k := range qc.karp {
			qc.karp[k].hops = carve(&hopArena, pc.karp[k].hops)
		}
	}
	return q
}

// carve appends src to the arena and returns the appended part, capped so
// that it cannot grow into its neighbour.
func carve[T any](arena *[]T, src []T) []T {
	start := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// Compile compiles the contraction structure of s into the workspace's
// scratch plan and returns it. s's costs are not read. The plan stays valid
// until the next Compile on ws, which MaxRatio also runs;
// Compact copies it out for keeps.
func (ws *Workspace) Compile(s *System) *Plan {
	p := &ws.plan
	p.err = nil
	p.comps = p.comps[:0]
	p.size = 0
	if !ws.acyclic(s, true) {
		p.err = ErrDeadlock
		return p
	}
	// No separate whole-graph acyclicity pass: an acyclic graph has only
	// trivial components, none of which holds a token edge, so the plan has
	// no component and evaluation reports ErrNoCycle.
	comp, ncomp := ws.scc(s)
	for c := 0; c < ncomp; c++ {
		if len(p.comps) == cap(p.comps) {
			p.comps = append(p.comps, planComp{})
		} else {
			p.comps = p.comps[:len(p.comps)+1]
		}
		pc := &p.comps[len(p.comps)-1]
		ok, err := ws.contractScaffold(s, comp, c, pc)
		if err != nil {
			p.err = err
			return p
		}
		if !ok || !ws.contractEdges(s, pc) {
			p.comps = p.comps[:len(p.comps)-1]
			continue
		}
		p.size += 3*len(pc.tokenEdges) + len(pc.cstart) + len(pc.zeroStart) + 2*len(pc.zeroSucc) + 2*pc.n + 3*len(pc.cedges)
		for _, kc := range pc.karp {
			p.size += 3 * len(kc.hops)
		}
	}
	return p
}

// contractScaffold fills the structural half of component c of s into pc:
// its token edges, the local vertex numbering, the zero-token DAG adjacency
// with its topological order, and (in workspace scratch, for contractEdges)
// the token-edge tail CSR. ok is false when the component carries no token
// edge (no cycle to contribute).
func (ws *Workspace) contractScaffold(s *System, comp []int, c int, pc *planComp) (ok bool, err error) {
	// Intra-component edges, split into token edges and zero-token edges.
	pc.scc = c
	pc.tokenEdges = pc.tokenEdges[:0]
	ws.zeroEdges = ws.zeroEdges[:0]
	for i, e := range s.G.Edges {
		if comp[e.From] != c || comp[e.To] != c {
			continue
		}
		if s.Tokens[e.ID] > 0 {
			pc.tokenEdges = append(pc.tokenEdges, i)
		} else {
			ws.zeroEdges = append(ws.zeroEdges, i)
		}
	}
	if len(pc.tokenEdges) == 0 {
		// Component with no token edge: acyclic by liveness (validated), so
		// it contributes no cycle.
		return false, nil
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
	for _, ei := range pc.tokenEdges {
		local(s.G.Edges[ei].From)
		local(s.G.Edges[ei].To)
	}
	for _, ei := range ws.zeroEdges {
		local(s.G.Edges[ei].From)
		local(s.G.Edges[ei].To)
	}
	n := len(ws.verts)
	pc.n = n

	// Zero-token DAG adjacency over local vertices and its topological order.
	nz := len(ws.zeroEdges)
	pc.zeroStart = grow(pc.zeroStart, n+1)
	pc.zeroEdge = grow(pc.zeroEdge, nz)
	ws.keyTmp = grow(ws.keyTmp, nz)
	for j, ei := range ws.zeroEdges {
		ws.keyTmp[j] = ws.localID[s.G.Edges[ei].From]
	}
	ws.fillCSR(pc.zeroStart, pc.zeroEdge, n, ws.keyTmp[:nz], ws.zeroEdges)
	// Successor view of the same CSR (parallel to zeroEdge), so the one Kahn
	// implementation serves both the acyclicity checks and this topological
	// order — the ordering discipline witness tie-breaking depends on lives
	// in exactly one place.
	pc.zeroSucc = grow(pc.zeroSucc, nz)
	for t, ei := range pc.zeroEdge {
		pc.zeroSucc[t] = ws.localID[s.G.Edges[ei].To]
	}
	if ws.kahn(n, pc.zeroStart, pc.zeroSucc) != n {
		return false, ErrDeadlock
	}
	// A DP from a token edge's head only reaches vertices after the head in
	// this order, so every sweep starts its DAG pass at the head's position.
	pc.order = append(pc.order[:0], ws.order...)
	pc.orderPos = grow(pc.orderPos, n)
	for k, v := range pc.order {
		pc.orderPos[v] = k
	}

	// Heads of token edges, where the DPs start, their tails, and the tails
	// as a CSR keyed by local vertex, with the tail vertices in ascending
	// order, the order contracted edges are emitted in.
	nt := len(pc.tokenEdges)
	pc.heads = grow(pc.heads, nt)
	pc.tails = grow(pc.tails, nt)
	ws.tailStart = grow(ws.tailStart, n+1)
	ws.tailItems = grow(ws.tailItems, nt)
	ws.valTmp = grow(ws.valTmp, nt)
	for j, ei := range pc.tokenEdges {
		pc.heads[j] = ws.localID[s.G.Edges[ei].To]
		pc.tails[j] = ws.localID[s.G.Edges[ei].From]
		ws.valTmp[j] = j
	}
	ws.fillCSR(ws.tailStart, ws.tailItems, n, pc.tails, ws.valTmp[:nt])
	ws.tailVerts = ws.tailVerts[:0]
	for v := 0; v < n; v++ {
		if ws.tailStart[v] < ws.tailStart[v+1] {
			ws.tailVerts = append(ws.tailVerts, v)
		}
	}
	return true, nil
}

// contractEdges completes pc from its scaffold: the contracted edges — per
// token edge, one to every token-edge tail its zero-token paths reach, in
// ascending tail order — and the SCCs of their token expansion. ok is false
// when no token edge reaches a tail (no contracted edge, no cycle).
func (ws *Workspace) contractEdges(s *System, pc *planComp) bool {
	n, nt := pc.n, len(pc.tokenEdges)
	// Which tails every vertex reaches on zero-token paths, as bitsets over
	// the tail vertices (bit i stands for tailVerts[i]), in one pass against
	// the DAG order: a vertex reaches what its successors reach, and itself
	// when it is a tail. A token edge's head reaches exactly the tails its
	// value DP will touch.
	nw := (len(ws.tailVerts) + 63) / 64
	ws.tailRank = grow(ws.tailRank, n)
	for v := range ws.tailRank {
		ws.tailRank[v] = -1
	}
	for i, v := range ws.tailVerts {
		ws.tailRank[v] = i
	}
	ws.reach = grow(ws.reach, n*nw)
	for k := n - 1; k >= 0; k-- {
		u := pc.order[k]
		row := ws.reach[u*nw : (u+1)*nw]
		clear(row)
		if i := ws.tailRank[u]; i >= 0 {
			row[i/64] |= 1 << (i % 64)
		}
		for _, to := range pc.zeroSucc[pc.zeroStart[u]:pc.zeroStart[u+1]] {
			for w, x := range ws.reach[to*nw : (to+1)*nw] {
				row[w] |= x
			}
		}
	}
	pc.cstart = grow(pc.cstart, nt+1)
	pc.cedges = pc.cedges[:0]
	for pos, head := range pc.heads {
		pc.cstart[pos] = len(pc.cedges)
		for w, x := range ws.reach[head*nw : (head+1)*nw] {
			for ; x != 0; x &= x - 1 {
				v := ws.tailVerts[w*64+bits.TrailingZeros64(x)]
				for _, to := range ws.tailItems[ws.tailStart[v]:ws.tailStart[v+1]] {
					pc.cedges = append(pc.cedges, contractedEdge{from: pos, to: to, v: v})
				}
			}
		}
	}
	pc.cstart[nt] = len(pc.cedges)
	if len(pc.cedges) == 0 {
		return false
	}

	// Expand multi-token contracted edges so Karp's uniform-token assumption
	// holds (the paper's TPNs only use single-token places; this keeps the
	// engine general), then keep each SCC of the expansion with a hop inside
	// it, renumbered to local ids.
	var nv int
	ws.hops, nv = expandTokens(ws.hops[:0], pc.cedges, pc.tokenEdges, s.Tokens)
	kcomp, nkc := ws.hopSCC(nv)
	ws.karpID = grow(ws.karpID, nv)
	pc.karp = pc.karp[:0]
	for c := 0; c < nkc; c++ {
		local := 0
		for v := 0; v < nv; v++ {
			ws.karpID[v] = -1
			if kcomp[v] == c {
				ws.karpID[v] = local
				local++
			}
		}
		if len(pc.karp) == cap(pc.karp) {
			pc.karp = append(pc.karp, karpComp{})
		} else {
			pc.karp = pc.karp[:len(pc.karp)+1]
		}
		kc := &pc.karp[len(pc.karp)-1]
		kc.n = local
		kc.hops = kc.hops[:0]
		for _, e := range ws.hops {
			if kcomp[e.from] == c && kcomp[e.to] == c {
				kc.hops = append(kc.hops, hop{ws.karpID[e.from], ws.karpID[e.to], e.ce})
			}
		}
		if len(kc.hops) == 0 {
			pc.karp = pc.karp[:len(pc.karp)-1] // trivial SCC without self loop
		}
	}
	return true
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

// sweep evaluates one compiled component on s's costs, in the arithmetic
// MaxRatioPlan chose: the longest zero-token path DP from every token
// edge's head prices the contracted edges, then Karp runs on every SCC of
// their token expansion. ok reports a cycle; witnessed reports that
// ws.critCyc holds the contracted edges of a critical cycle, for witness.
func (ws *Workspace) sweep(s *System, pc *planComp) (lambda rat.Rat, witnessed, ok bool) {
	n, nc := pc.n, len(pc.cedges)
	ws.has = grow(ws.has, n)
	ws.pred = grow(ws.pred, n)
	if ws.intMode {
		ws.idist = grow(ws.idist, n)
		ws.zc = grow(ws.zc, len(pc.zeroEdge))
		for t, ei := range pc.zeroEdge {
			ws.zc[t] = ws.icost[ei]
		}
		ws.ceInt = grow(ws.ceInt, nc)
	} else {
		ws.dist = grow(ws.dist, n)
		ws.ceRat = grow(ws.ceRat, nc)
	}
	for pos, ei := range pc.tokenEdges {
		ws.zeroDP(s, pc, pc.heads[pos], n)
		for k := pc.cstart[pos]; k < pc.cstart[pos+1]; k++ {
			v := pc.cedges[k].v
			if ws.intMode {
				ws.ceInt[k] = ws.icost[ei] + ws.idist[v]
			} else {
				ws.ceRat[k] = s.Cost[ei].Add(ws.dist[v])
			}
		}
	}
	for i := range pc.karp {
		kc := &pc.karp[i]
		l, cyc, kok := ws.karpSCC(kc)
		if !kok || (ok && !lambda.Less(l)) {
			continue
		}
		lambda, witnessed, ok = l, cyc, true
		if cyc {
			ws.critCyc = ws.critCyc[:0]
			for _, j := range ws.kcyc {
				if ce := kc.hops[j].ce; ce >= 0 {
					ws.critCyc = append(ws.critCyc, ce)
				}
			}
		}
	}
	return lambda, witnessed, ok
}

// zeroDP runs the longest zero-token path DP of pc from local vertex head
// over the component's DAG, relaxing the edges out of the vertices before
// position end of the topological order: afterwards has marks the vertices
// reached, dist (or idist) holds their distances, and pred the CSR item of
// the zero edge that last improved each one (-1 at head). Entries are final
// for every vertex up to order[end], whose predecessors all come earlier.
// The sweep runs it once per token edge over the whole order, the witness
// rebuild once per token edge of the critical cycle, up to the path's end;
// it is the same DP with the same order and tie-breaks both times.
func (ws *Workspace) zeroDP(s *System, pc *planComp, head, end int) {
	clear(ws.has[:pc.n])
	ws.has[head] = true
	ws.pred[head] = -1
	order := pc.order[pc.orderPos[head]:end]
	if ws.intMode {
		ws.zeroDPInt(pc, head, order)
	} else {
		ws.zeroDPRat(s, pc, head, order)
	}
}

// zeroDPInt is zeroDP's relax loop on scaled int64 costs (no overflow: see
// scaleCosts).
func (ws *Workspace) zeroDPInt(pc *planComp, head int, order []int) {
	dist, has, pred := ws.idist, ws.has, ws.pred
	start, succ, zc := pc.zeroStart, pc.zeroSucc, ws.zc
	dist[head] = 0
	for _, u := range order {
		if !has[u] {
			continue
		}
		du := dist[u]
		for t := start[u]; t < start[u+1]; t++ {
			to := succ[t]
			cand := du + zc[t]
			if !has[to] || dist[to] < cand {
				dist[to] = cand
				has[to] = true
				pred[to] = t
			}
		}
	}
}

// zeroDPRat is zeroDP's relax loop in exact rationals.
func (ws *Workspace) zeroDPRat(s *System, pc *planComp, head int, order []int) {
	dist, has, pred := ws.dist, ws.has, ws.pred
	start, succ := pc.zeroStart, pc.zeroSucc
	dist[head] = rat.Zero()
	for _, u := range order {
		if !has[u] {
			continue
		}
		for t := start[u]; t < start[u+1]; t++ {
			to := succ[t]
			cand := dist[u].Add(s.Cost[pc.zeroEdge[t]])
			if !has[to] || dist[to].Less(cand) {
				dist[to] = cand
				has[to] = true
				pred[to] = t
			}
		}
	}
}

// witness translates the critical cycle in ws.critCyc, a list of contracted
// edges of pc, back to system edges: per contracted edge, its token edge,
// then the zero-token path, recovered by re-running that token edge's
// zeroDP and walking pred back. The sweep kept no paths; only the cycle's
// token edges pay the DP a second time. The result is allocated once, at its
// final size.
func (ws *Workspace) witness(s *System, pc *planComp) []int {
	ws.witTmp = ws.witTmp[:0]
	for _, ce := range ws.critCyc {
		e := pc.cedges[ce]
		ws.witTmp = append(ws.witTmp, pc.tokenEdges[e.from])
		ws.zeroDP(s, pc, pc.heads[e.from], pc.orderPos[e.v])
		start := len(ws.witTmp)
		for x := e.v; ws.pred[x] != -1; {
			t := ws.pred[x]
			ws.witTmp = append(ws.witTmp, pc.zeroEdge[t])
			// Item t's tail is the vertex whose CSR range holds it: the
			// last one starting at or before t.
			x, _ = slices.BinarySearch(pc.zeroStart[:pc.n+1], t+1)
			x--
		}
		slices.Reverse(ws.witTmp[start:])
	}
	return append(make([]int, 0, len(ws.witTmp)), ws.witTmp...)
}

// karpSCC runs Karp's algorithm on one SCC of the expanded contracted
// graph. cyc reports that ws.kcyc holds a cycle of mean λ* (indices into
// kc.hops).
func (ws *Workspace) karpSCC(kc *karpComp) (lambda rat.Rat, cyc, ok bool) {
	// D[k][v] = max weight of a k-edge progression from source to v,
	// flattened row-major into reused tables; parent[k][v] is the hop that
	// last improved it.
	n := kc.n
	size := (n + 1) * n
	ws.kHas = grow(ws.kHas, size)
	ws.kParent = grow(ws.kParent, size)
	clear(ws.kHas[:size])
	ws.kHas[0] = true
	var bestV int
	if ws.intMode {
		lambda, bestV, ok = ws.karpInt(kc)
	} else {
		lambda, bestV, ok = ws.karpRat(kc)
	}
	if !ok {
		return rat.Rat{}, false, false
	}

	// Witness: walk the n-edge progression ending at bestV back; some vertex
	// repeats, and the enclosed sub-walk is a maximum mean cycle.
	ws.pathV = grow(ws.pathV, n+1) // vertices along the progression
	ws.pathE = grow(ws.pathE, n+1) // hop arriving at pathV[k]
	ws.pathV[n] = bestV
	for k := n; k >= 1; k-- {
		j := ws.kParent[k*n+ws.pathV[k]]
		ws.pathE[k] = j
		ws.pathV[k-1] = kc.hops[j].from
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
	return lambda, ws.cycleMean(kc).Equal(lambda), true
}

// karpInt fills the Karp table on scaled int64 costs and evaluates
// λ* = max_v min_k (D[n][v]−D[k][v])/(n−k), comparing the fractions by
// 128-bit cross products. No table entry overflows (see scaleCosts).
func (ws *Workspace) karpInt(kc *karpComp) (rat.Rat, int, bool) {
	n := kc.n
	size := (n + 1) * n
	D, has, parent := grow(ws.kI, size), ws.kHas, ws.kParent
	ws.kI = D
	cost := grow(ws.kc, len(kc.hops))
	ws.kc = cost
	for j, h := range kc.hops {
		cost[j] = 0
		if h.ce >= 0 {
			cost[j] = ws.ceInt[h.ce]
		}
	}
	D[0] = 0
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for j := range kc.hops {
			h := &kc.hops[j]
			u := prev + h.from
			if !has[u] {
				continue
			}
			cand := D[u] + cost[j]
			if v := row + h.to; !has[v] || D[v] < cand {
				D[v] = cand
				has[v] = true
				parent[v] = j
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
func (ws *Workspace) karpRat(kc *karpComp) (rat.Rat, int, bool) {
	n := kc.n
	size := (n + 1) * n
	D, has, parent := grow(ws.kD, size), ws.kHas, ws.kParent
	ws.kD = D
	D[0] = rat.Zero()
	for k := 1; k <= n; k++ {
		row, prev := k*n, (k-1)*n
		for j := range kc.hops {
			h := &kc.hops[j]
			u := prev + h.from
			if !has[u] {
				continue
			}
			cand := D[u]
			if h.ce >= 0 {
				cand = cand.Add(ws.ceRat[h.ce])
			}
			if v := row + h.to; !has[v] || D[v].Less(cand) {
				D[v] = cand
				has[v] = true
				parent[v] = j
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
func (ws *Workspace) cycleMean(kc *karpComp) rat.Rat {
	hops := int64(len(ws.kcyc))
	if ws.intMode {
		var sum int64
		for _, j := range ws.kcyc {
			if ce := kc.hops[j].ce; ce >= 0 {
				sum += ws.ceInt[ce]
			}
		}
		return rat.New(sum, hops).DivInt(ws.scale)
	}
	sum := rat.Zero()
	for _, j := range ws.kcyc {
		if ce := kc.hops[j].ce; ce >= 0 {
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
