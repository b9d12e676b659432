package model

import (
	"fmt"

	"repro/internal/rat"
)

// ResourceKind distinguishes the three hardware resources of a processor
// under the one-port models: its input port, its computing unit and its
// output port.
type ResourceKind int

const (
	// ResInput is the receiving port of a processor.
	ResInput ResourceKind = iota
	// ResCompute is the computing unit.
	ResCompute
	// ResOutput is the sending port.
	ResOutput
)

// String implements fmt.Stringer.
func (k ResourceKind) String() string {
	switch k {
	case ResInput:
		return "in"
	case ResCompute:
		return "comp"
	case ResOutput:
		return "out"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Resource summarizes the per-data-set occupation of one processor.
type Resource struct {
	Stage   int
	Replica int
	Proc    int
	Name    string
	// Cin, Ccomp, Cout are per-data-set occupation times of the input port,
	// compute unit and output port (Section 2; Cin of stage 0 and Cout of
	// the last stage are zero).
	Cin, Ccomp, Cout rat.Rat
	// CexecOverlap = max(Cin, Ccomp, Cout); CexecStrict = Cin+Ccomp+Cout.
	CexecOverlap, CexecStrict rat.Rat
}

// Cexec returns the cycle-time of the resource under the given model.
func (r Resource) Cexec(m CommModel) rat.Rat {
	if m == Overlap {
		return r.CexecOverlap
	}
	return r.CexecStrict
}

// Resources computes the per-data-set cycle-time decomposition of every
// processor in the mapping.
//
// Over a macro-period of m = lcm(m_i) data sets, replica a of stage i
// handles the data sets j ≡ a (mod m_i); its ports see the corresponding
// round-robin senders/receivers. Dividing the macro-period busy time by m
// yields the per-data-set occupation. The sender of data set j is replica
// j mod m_{i-1}, so the input port's sequence of senders repeats every
// L = lcm(m_i, m_{i-1}) data sets, and the macro-period holds m/L such
// periods: the occupation is the sum over one period divided by L (the
// output port likewise with m_{i+1}). The cost per port is L/m_i terms,
// not m/m_i.
func (in *Instance) Resources() []Resource {
	total := 0
	for _, mi := range in.m {
		total += mi
	}
	out := make([]Resource, 0, total)
	for i := 0; i < in.n; i++ {
		for a := 0; a < in.m[i]; a++ {
			r := in.resource(i, a)
			r.Name = in.ProcName(i, a)
			out = append(out, r)
		}
	}
	return out
}

// resource computes the decomposition of replica a of stage i, without
// its display name.
func (in *Instance) resource(i, a int) Resource {
	r := Resource{Stage: i, Replica: a, Proc: in.proc[i][a]}
	r.Cin, r.Ccomp, r.Cout = in.ports(i, a)
	r.CexecOverlap = rat.Max(r.Cin, rat.Max(r.Ccomp, r.Cout))
	r.CexecStrict = r.Cin.Add(r.Ccomp).Add(r.Cout)
	return r
}

// ports returns the per-data-set occupation times Cin, Ccomp and Cout of
// replica a of stage i.
func (in *Instance) ports(i, a int) (cin, ccomp, cout rat.Rat) {
	mi := int64(in.m[i])
	// Compute: the replica runs one data set in m_i.
	ccomp = in.comp[i][a].DivInt(mi)
	// Input port: for each handled data set, the sender is the round-robin
	// replica of stage i-1.
	if i > 0 {
		mp := int64(in.m[i-1])
		l := rat.LCMInt(mi, mp)
		sum := rat.Zero()
		for j := int64(a); j < l; j += mi {
			sum = sum.Add(in.comm[i-1][j%mp][a])
		}
		cin = sum.DivInt(l)
	}
	// Output port: receivers are round-robin replicas of stage i+1.
	if i < in.n-1 {
		mn := int64(in.m[i+1])
		l := rat.LCMInt(mi, mn)
		sum := rat.Zero()
		for j := int64(a); j < l; j += mi {
			sum = sum.Add(in.comm[i][a][j%mn])
		}
		cout = sum.DivInt(l)
	}
	return cin, ccomp, cout
}

// Mct returns the maximum cycle-time over all resources under the given
// model. It is a lower bound for the period (Section 2) and equals the
// period when no stage is replicated. It is computed on each call, in one
// pass over the replicas that allocates nothing and forms only the model's
// cycle times, which makes it the first test of the exact cutoff
// (core.Solver.PeriodBelow): most candidates of a search are ruled out by
// it before any net is built.
func (in *Instance) Mct(m CommModel) rat.Rat {
	mct := rat.Zero()
	for i := 0; i < in.n; i++ {
		for a := 0; a < in.m[i]; a++ {
			cin, ccomp, cout := in.ports(i, a)
			if m == Overlap {
				mct = rat.Max(mct, rat.Max(cin, rat.Max(ccomp, cout)))
			} else {
				mct = rat.Max(mct, cin.Add(ccomp).Add(cout))
			}
		}
	}
	return mct
}

// CriticalResources returns the resources whose cycle-time attains Mct.
func (in *Instance) CriticalResources(m CommModel) []Resource {
	res := in.Resources()
	mct := rat.Zero()
	for _, r := range res {
		mct = rat.Max(mct, r.Cexec(m))
	}
	var out []Resource
	for _, r := range res {
		if r.Cexec(m).Equal(mct) {
			out = append(out, r)
		}
	}
	return out
}
