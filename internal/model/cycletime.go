package model

import (
	"fmt"
	"math"
	"math/bits"

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
//
// The pass runs on unreduced fractions of 64-bit integers (see frac) and
// reduces only the winner; an operand that is negative or big, or a sum or
// denominator past int64, sends it to the exact rational pass instead.
// Both return the same value, so the same canonical Rat.
func (in *Instance) Mct(m CommModel) rat.Rat {
	if mct, ok := in.mctFrac(m); ok {
		return mct
	}
	return in.mctRat(m)
}

// mctRat is Mct's exact rational pass.
func (in *Instance) mctRat(m CommModel) rat.Rat {
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

// mctFrac is Mct on fractions; ok is false when some step leaves them.
func (in *Instance) mctFrac(m CommModel) (rat.Rat, bool) {
	var fa fracArith
	best := frac{0, 1}
	for i := 0; i < in.n; i++ {
		// The input port's senders repeat every lIn data sets, the output
		// port's receivers every lOut.
		mi := uint64(in.m[i])
		var mp, mn, lIn, lOut uint64
		if i > 0 {
			mp = uint64(in.m[i-1])
			lIn = lcm(mi, mp)
		}
		if i < in.n-1 {
			mn = uint64(in.m[i+1])
			lOut = lcm(mi, mn)
		}
		for a := 0; a < in.m[i]; a++ {
			c := fa.div(fa.of(in.comp[i][a]), mi)
			if i > 0 {
				c = fa.combine(c, fa.port(in.comm[i-1], a, mi, mp, lIn, false), m)
			}
			if i < in.n-1 {
				c = fa.combine(c, fa.port(in.comm[i], a, mi, mn, lOut, true), m)
			}
			if fa.overflow {
				return rat.Rat{}, false
			}
			if best.less(c) {
				best = c
			}
		}
	}
	return rat.New(int64(best.n), int64(best.d)), true
}

// frac is a non-negative fraction n/d, d > 0, not necessarily in lowest
// terms, with n and d at most MaxInt64.
type frac struct{ n, d uint64 }

// less reports x < y, by 128-bit cross products.
func (x frac) less(y frac) bool {
	h1, l1 := bits.Mul64(x.n, y.d)
	h2, l2 := bits.Mul64(y.n, x.d)
	return h1 < h2 || h1 == h2 && l1 < l2
}

// fracArith forms fracs and records, stickily, any step whose operand or
// result leaves them; after an overflow its results are meaningless, and
// add skips its arithmetic.
type fracArith struct{ overflow bool }

// of returns r as a frac.
func (fa *fracArith) of(r rat.Rat) frac {
	n, d, ok := r.Small()
	if !ok || n < 0 {
		fa.overflow = true
		return frac{0, 1}
	}
	return frac{uint64(n), uint64(d)}
}

// port returns the per-data-set occupation of one port of replica a, which
// handles the data sets j ≡ a (mod mi): the sum of its transfers over one
// period l = lcm(mi, mo) of the round-robin over the mo replicas on the
// other side, divided by l. times is the file's transfer table, indexed
// [a][peer] for an output port (out) and [peer][a] for an input port.
func (fa *fracArith) port(times [][]rat.Rat, a int, mi, mo, l uint64, out bool) frac {
	// k = j mod mo, kept without dividing: j starts at a and steps by mi.
	k := uint64(a)
	for k >= mo {
		k -= mo
	}
	step := mi
	for step >= mo {
		step -= mo
	}
	sum := frac{0, 1}
	for j := uint64(a); j < l; j += mi {
		var t frac
		if out {
			t = fa.of(times[a][k])
		} else {
			t = fa.of(times[k][a])
		}
		if t.d == sum.d {
			sum.n += t.n // both at most MaxInt64: no wrap, and check catches the rest
			fa.check(sum, 0)
		} else {
			sum = fa.add(sum, t)
		}
		if k += step; k >= mo {
			k -= mo
		}
	}
	return fa.div(sum, l)
}

// add returns x + y: over the common denominator when they share one, over
// the product of the two when both are below 2^31, and over their lcm
// otherwise.
func (fa *fracArith) add(x, y frac) frac {
	if fa.overflow {
		return x
	}
	if x.d == y.d {
		return fa.check(frac{x.n + y.n, x.d}, 0)
	}
	if x.n == 0 {
		return y
	}
	ex, ey := x.d, y.d
	if x.d|y.d >= 1<<31 {
		g := uint64(rat.GCDInt(int64(x.d), int64(y.d)))
		ex, ey = x.d/g, y.d/g
	}
	h1, n1 := bits.Mul64(x.n, ey)
	h2, n2 := bits.Mul64(y.n, ex)
	h3, d := bits.Mul64(x.d, ey)
	if n1 > math.MaxInt64 || n2 > math.MaxInt64 {
		fa.overflow = true
	}
	return fa.check(frac{n1 + n2, d}, h1|h2|h3)
}

// div returns x/k for k > 0.
func (fa *fracArith) div(x frac, k uint64) frac {
	hi, d := bits.Mul64(x.d, k)
	return fa.check(frac{x.n, d}, hi)
}

// combine joins two of a resource's occupation times into its cycle time
// under m: their maximum (overlap) or their sum (strict).
func (fa *fracArith) combine(x, y frac, m CommModel) frac {
	if m != Overlap {
		return fa.add(x, y)
	}
	if x.less(y) {
		return y
	}
	return x
}

// check returns x, recording an overflow when hi, the high word of the
// product that formed it, is set or x leaves int64.
func (fa *fracArith) check(x frac, hi uint64) frac {
	if hi != 0 || x.n > math.MaxInt64 || x.d > math.MaxInt64 {
		fa.overflow = true
	}
	return x
}

// lcm is rat.LCMInt on replica counts, which are small and positive.
func lcm(a, b uint64) uint64 { return uint64(rat.LCMInt(int64(a), int64(b))) }

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
