// Package core implements the paper's primary contribution: computing the
// steady-state period (inverse throughput) of a replicated workflow mapping
// on a heterogeneous platform, for both communication models.
//
// Two routes are provided:
//
//   - PeriodTPN: the general method of Section 4 — build the full unfolded
//     timed Petri net (m rows) and compute its maximum cycle ratio; the
//     per-data-set period is that ratio divided by m (m data sets complete
//     per TPN period).
//
//   - PeriodOverlapPoly: the polynomial algorithm of Theorem 1 for the
//     OVERLAP ONE-PORT model. Critical cycles live inside single columns of
//     the TPN; computation columns contribute closed-form ratios and each
//     communication column decomposes into gcd(m_i, m_{i+1}) connected
//     components whose critical-cycle weight equals that of a single u×v
//     pattern graph G′ — polynomial even when m = lcm(m_i) is astronomically
//     large (Example C: m = 10395, but every G′ is 7×9).
package core

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/model"
	"repro/internal/petri"
	"repro/internal/platform"
	"repro/internal/rat"
)

// Method identifies which algorithm produced a Result.
type Method string

const (
	// MethodTPN is the general unfolded-TPN critical-cycle computation.
	MethodTPN Method = "tpn"
	// MethodPoly is the Theorem 1 polynomial algorithm (overlap only).
	MethodPoly Method = "poly"
)

// Result is the outcome of a period computation.
type Result struct {
	Model model.CommModel
	// Period is the steady-state interval between consecutive data-set
	// completions (per data set; the TPN-level period is Period * PathCount).
	Period rat.Rat
	// Mct is the maximum resource cycle-time, the lower bound of Section 2.
	Mct rat.Rat
	// PathCount is m = lcm(m_0..m_(n-1)).
	PathCount int64
	Method    Method
}

// Throughput returns 1/Period, the number of data sets per time unit.
func (r Result) Throughput() rat.Rat {
	return rat.One().Div(r.Period)
}

// HasCriticalResource reports whether some hardware resource is busy during
// the whole period (Period == Mct). When false, every resource idles at some
// point of the steady state — the surprising situation of Sections 4-5.
func (r Result) HasCriticalResource() bool {
	return r.Period.Equal(r.Mct)
}

// Gap returns (Period - Mct) / Mct, the relative distance between the period
// and its lower bound (0 when a critical resource exists).
func (r Result) Gap() rat.Rat {
	return r.Period.Sub(r.Mct).Div(r.Mct)
}

// Period computes the period of the instance under the given model,
// choosing the best algorithm: the polynomial algorithm for OVERLAP, the
// general TPN method for STRICT (for which polynomiality is open, Section 6).
// It is a thin wrapper over a pooled package-default Solver; hot loops
// should hold their own Solver instead.
func Period(inst *model.Instance, m model.CommModel) (Result, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Period(inst, m)
}

// PeriodTPN computes the period by building the full unfolded TPN and
// extracting its critical cycle. Works for both models; cost grows with
// m = lcm(m_i) and the builder rejects instances beyond tpn.MaxRows (use a
// Solver with a custom MaxRows to raise the cap).
func PeriodTPN(inst *model.Instance, m model.CommModel) (Result, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.PeriodTPN(inst, m)
}

func periodFromNet(inst *model.Instance, m model.CommModel, net *petri.Net) (Result, error) {
	crit, err := net.MaxCycleRatio()
	return tpnResult(inst, m, inst.Mct(m), crit, err)
}

// tpnResult turns the critical cycle of the unfolded net of inst under m
// into the per-data-set period: the ratio divided by the path count m. mct
// is inst.Mct(m).
func tpnResult(inst *model.Instance, m model.CommModel, mct rat.Rat, crit cycles.Result, err error) (Result, error) {
	if err != nil {
		return Result{}, fmt.Errorf("core: critical cycle: %w", err)
	}
	pc := inst.PathCount()
	return Result{
		Model:     m,
		Period:    crit.Ratio.DivInt(pc),
		Mct:       mct,
		PathCount: pc,
		Method:    MethodTPN,
	}, nil
}

// PeriodOverlapPoly computes the OVERLAP ONE-PORT period with the
// polynomial algorithm of Theorem 1:
//
//	P = max(  max_{i,a}  comp(i,a) / m_i ,
//	          max_i max_{component g}  maxCycleRatio(G'_{i,g}) / lcm(m_i, m_{i+1}) )
//
// The first term covers computation columns (each processor's round-robin
// circuit), the second communication columns via the pattern graphs.
func PeriodOverlapPoly(inst *model.Instance) (Result, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.PeriodOverlapPoly(inst)
}

// CommPattern carries the gcd/lcm decomposition of one communication column
// (the transmission of file F_i), following the proof of Theorem 1 and
// Example C of the paper, together with the column's source of transfer
// times: a file of an Instance (NewCommPattern), or δ_i/b(u,v) over two
// ordered replica lists on a platform (NewReplicaPattern). Both sources feed
// the one pattern-graph builder, PatternGraphInto.
type CommPattern struct {
	Inst *model.Instance // nil for a pattern built from replica lists
	File int             // i: the file F_i, sent by S_i's replicas to S_(i+1)'s
	// P = gcd(m_i, m_{i+1}): number of connected components of the sub-TPN.
	P int
	// U = m_i/P senders and V = m_{i+1}/P receivers per component.
	U, V int
	// LCM = lcm(m_i, m_{i+1}).
	LCM int64
	// C = m / LCM: number of u×v patterns chained in each component of the
	// full unfolded sub-TPN (0 for replica lists, which carry no m).
	C int64

	// The replica-list source: F_File of size bytes from senders[a] to
	// receivers[b] on plat.
	plat               *platform.Platform
	size               int64
	senders, receivers []int
}

// NewCommPattern computes the decomposition for file i of an instance.
func NewCommPattern(inst *model.Instance, i int) CommPattern {
	cp := newPattern(inst.Replication(i), inst.Replication(i+1))
	cp.Inst, cp.File, cp.C = inst, i, inst.PathCount()/cp.LCM
	return cp
}

// NewReplicaPattern computes the decomposition of the column that
// model.FromMapped would derive for file i of size bytes sent from the
// ordered replica list senders to the ordered list receivers: replica a of
// S_i runs on processor senders[a], and list order is round-robin order.
// Every link senders[a] -> receivers[b] must exist on plat.
func NewReplicaPattern(plat *platform.Platform, i int, size int64, senders, receivers []int) CommPattern {
	cp := newPattern(len(senders), len(receivers))
	cp.File, cp.plat, cp.size, cp.senders, cp.receivers = i, plat, size, senders, receivers
	return cp
}

func newPattern(mi, mj int) CommPattern {
	p := rat.GCDInt(int64(mi), int64(mj))
	return CommPattern{
		P:   int(p),
		U:   mi / int(p),
		V:   mj / int(p),
		LCM: rat.LCMInt(int64(mi), int64(mj)),
	}
}

// commTime is the transfer time of F_File from sender replica a to receiver
// replica b, from whichever source the pattern carries.
func (cp *CommPattern) commTime(a, b int) rat.Rat {
	if cp.Inst != nil {
		return cp.Inst.CommTime(cp.File, a, b)
	}
	return cp.plat.TransferTime(cp.size, cp.senders[a], cp.receivers[b])
}

// SenderIndex returns the stage-i replica index of component-local sender α.
// Component g contains exactly the senders a ≡ g (mod P) — a sender can only
// ever talk to receivers congruent to it modulo gcd (Chinese remainders on
// the round-robin index j).
func (cp CommPattern) SenderIndex(g, alpha int) int { return g + alpha*cp.P }

// ReceiverIndex returns the stage-(i+1) replica index of component-local
// receiver β.
func (cp CommPattern) ReceiverIndex(g, beta int) int { return g + beta*cp.P }

// PatternGraph builds the u×v pattern graph G′ of component g as a
// cycle-ratio system, exactly as in the proof of Theorem 1: grid vertices
// x_{αβ} with token-free forward places α→α+1 (the receiver's round-robin)
// and β→β+1 (the sender's round-robin), plus single-token wrap places
// x_{(u-1)β}→x_{0β} and x_{α(v-1)}→x_{α0}.
//
// Grid coordinates are round-robin *positions*, not raw replica indices:
// successive receptions of a receiver advance the sender replica index by
// m_{i+1} (i.e. by v component-locally), so grid row α corresponds to the
// component sender v·α mod u, and grid column β to the component receiver
// u·β mod v (u and v are coprime, so both relabelings are bijections).
//
// The per-data-set period candidate of the component is
// maxCycleRatio(G′)/lcm(m_i, m_{i+1}): a closed cycle with x full β-sweeps
// and y full α-sweeps crosses x+y wrap tokens while the corresponding cycle
// of the full unfolded sub-TPN advances (x+y)·lcm rows, i.e. (x+y)·lcm/m of
// its single-token resource circuits, and the TPN-level ratio divides by m
// to give the per-data-set period.
func (cp CommPattern) PatternGraph(g int) *cycles.System {
	return cp.PatternGraphInto(g, cycles.NewSystem(cp.U*cp.V))
}

// PatternGraphInto builds the pattern graph of component g into s, reusing
// the system's storage (the Solver's polynomial path calls this once per
// component with one shared system).
func (cp CommPattern) PatternGraphInto(g int, s *cycles.System) *cycles.System {
	u, v := cp.U, cp.V
	s.Reset(u * v)
	id := func(alpha, beta int) int { return alpha*v + beta }
	for alpha := 0; alpha < u; alpha++ {
		a := (v * alpha) % u // component-local sender of grid row α
		for beta := 0; beta < v; beta++ {
			b := (u * beta) % v // component-local receiver of grid column β
			cost := cp.commTime(cp.SenderIndex(g, a), cp.ReceiverIndex(g, b))
			// Receiver's round-robin: next reception of receiver β.
			nextA, tokA := alpha+1, 0
			if nextA == u {
				nextA, tokA = 0, 1
			}
			s.AddEdge(id(alpha, beta), id(nextA, beta), cost, tokA)
			// Sender's round-robin: next transmission of sender α.
			nextB, tokB := beta+1, 0
			if nextB == v {
				nextB, tokB = 0, 1
			}
			s.AddEdge(id(alpha, beta), id(alpha, nextB), cost, tokB)
		}
	}
	return s
}

// ComponentPeriodCandidate returns the per-data-set period candidate of
// component g: maxCycleRatio(PatternGraph(g)) / lcm(m_i, m_{i+1}).
func (cp CommPattern) ComponentPeriodCandidate(g int) (rat.Rat, error) {
	res, err := cp.PatternGraph(g).MaxRatio()
	if err != nil {
		return rat.Rat{}, err
	}
	return res.Ratio.DivInt(cp.LCM), nil
}

// CommPatterns returns the decomposition of every communication column;
// handy for reproducing the Example C numbers of the proof of Theorem 1.
func CommPatterns(inst *model.Instance) []CommPattern {
	out := make([]CommPattern, 0, inst.NumStages()-1)
	for i := 0; i < inst.NumStages()-1; i++ {
		out = append(out, NewCommPattern(inst, i))
	}
	return out
}
