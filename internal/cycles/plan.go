package cycles

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/rat"
)

// MaxRatio computes the maximum cycle ratio λ* = max_C cost(C)/tokens(C)
// exactly, by cycle iteration on the system's compiled Plan (see
// Workspace.MaxRatioFrom).
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
// MaxRatioPlan, and returns the witness in a slice of its own. Results —
// ratio and witness cycle — are bit-identical to System.MaxRatio; only the
// allocation behaviour differs. s is not mutated.
func (ws *Workspace) MaxRatio(s *System) (Result, error) {
	res, err := ws.MaxRatioPlan(ws.Compile(s), s)
	res.Cycle = slices.Clone(res.Cycle)
	return res, err
}

// intBound caps the scaled int64 arithmetic; see scaleCosts.
const intBound = 1 << 62

// scaleCosts decides whether the potential checks may run on scaled int64
// costs and, if so, fills ws.icost with them. With D the lcm of the cost
// denominators, edge i costs ws.icost[i]/D, and the scaled costs sum to
// ws.isum ≤ 2^62. ok is false — the rational loops run — for big-rational
// costs, an lcm beyond int64, or sums past the bound. potentialScale then
// bounds each check's potentials at its λ.
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
	ws.scale, ws.isum = d, int64(sum)
	return true
}

// Plan is the value-independent half of a cycle-ratio evaluation for one
// system structure, that is its edge list with endpoints, order and token
// counts: whether the zero-token subgraph is acyclic (liveness) and the
// whole graph is not, the token edges with their ends, and the zero-token
// DAG as a CSR with a topological order.
//
// Compile builds it, and the potential check reads it (RatioAtMostPlan,
// and the cycle iteration of MaxRatioFrom, which runs that check until it
// holds): a round relaxes the token edges, then the zero-token DAG in
// order. Evaluation runs only the arithmetic, in the order a fresh compile
// of the evaluated system would give, so a plan compiled from one system
// serves every system of the same structure with bit-identical results. A
// plan is read-only once compiled and may be shared by workspaces.
type Plan struct {
	err    error // structural failure (ErrDeadlock), reported by every evaluation
	cyclic bool  // the graph has a cycle; evaluation reports ErrNoCycle otherwise
	n      int   // vertices
	size   int

	tokenEdges []int // system edge per token edge
	heads      []int // head vertex per token edge
	tails      []int // tail vertex per token edge
	// Zero-token DAG: CSR keyed by tail, with the head, the system edge and
	// the tail of each item, and the vertices in topological order.
	zeroStart, zeroSucc, zeroEdge, zeroTail []int
	order                                   []int
}

// Size is the number of int table entries the plan holds, for callers that
// bound a cache of plans.
func (p *Plan) Size() int { return p.size }

// Compact returns a copy of p in exact-size storage, one backing array for
// all its tables: a plan to keep beyond the next Compile on its workspace
// (a cache entry) costs two allocations and no append slack.
func (p *Plan) Compact() *Plan {
	q := &Plan{err: p.err, cyclic: p.cyclic, n: p.n, size: p.size}
	arena := make([]int, 0, p.size)
	q.tokenEdges = carve(&arena, p.tokenEdges)
	q.heads = carve(&arena, p.heads)
	q.tails = carve(&arena, p.tails)
	q.zeroStart = carve(&arena, p.zeroStart)
	q.zeroSucc = carve(&arena, p.zeroSucc)
	q.zeroEdge = carve(&arena, p.zeroEdge)
	q.zeroTail = carve(&arena, p.zeroTail)
	q.order = carve(&arena, p.order)
	return q
}

// carve appends src to the arena and returns the appended part, capped so
// that it cannot grow into its neighbour.
func carve(arena *[]int, src []int) []int {
	start := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// Compile compiles the structure of s into the workspace's scratch plan and
// returns it. s's costs are not read. The plan stays valid until the next
// Compile on ws, which MaxRatio also runs; Compact copies it out for keeps.
//
// The plan covers the whole graph, not one strongly connected component at
// a time: potentials start at 0 on every vertex, as if a source reached
// each one, so a check over the whole graph decides λ ≥ λ* for the maximum
// over its components, and a cycle its predecessor graph closes lies in
// one of them.
func (ws *Workspace) Compile(s *System) *Plan {
	p := &ws.plan
	n := s.G.N
	p.err, p.cyclic, p.n, p.size = nil, false, n, 0
	p.tokenEdges, p.heads, p.tails = p.tokenEdges[:0], p.heads[:0], p.tails[:0]
	ws.zeroEdges, ws.keyTmp = ws.zeroEdges[:0], ws.keyTmp[:0]
	for i, e := range s.G.Edges {
		if s.Tokens[e.ID] > 0 {
			p.tokenEdges = append(p.tokenEdges, i)
			p.tails = append(p.tails, e.From)
			p.heads = append(p.heads, e.To)
		} else {
			ws.zeroEdges = append(ws.zeroEdges, i)
			ws.keyTmp = append(ws.keyTmp, e.From)
		}
	}
	// Zero-token DAG adjacency and its topological order. Successor and
	// tail views of the CSR (parallel to zeroEdge) serve the one Kahn
	// implementation and the predecessor walk of the check.
	nz := len(ws.zeroEdges)
	p.zeroStart = grow(p.zeroStart, n+1)
	p.zeroEdge = grow(p.zeroEdge, nz)
	ws.fillCSR(p.zeroStart, p.zeroEdge, n, ws.keyTmp, ws.zeroEdges)
	p.zeroSucc = grow(p.zeroSucc, nz)
	p.zeroTail = grow(p.zeroTail, nz)
	for t, ei := range p.zeroEdge {
		p.zeroSucc[t] = s.G.Edges[ei].To
		p.zeroTail[t] = s.G.Edges[ei].From
	}
	if ws.kahn(n, p.zeroStart, p.zeroSucc) != n {
		p.err = ErrDeadlock
		return p
	}
	p.order = append(p.order[:0], ws.order...)
	// A graph with no cycle has none to iterate over, which no potential
	// check would notice: it holds at every λ.
	p.cyclic = len(p.tokenEdges) > 0 && !ws.acyclic(s, false)
	p.size = 3*len(p.tokenEdges) + len(p.zeroStart) + 3*nz + n
	return p
}
