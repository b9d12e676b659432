package model

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// resourcesMacroPeriod is the direct reading of the definition that
// Resources shortcuts: every port summed over the whole macro-period of
// m = lcm(m_i) data sets and divided by m.
func resourcesMacroPeriod(in *Instance) []Resource {
	m := in.PathCount()
	var out []Resource
	for i := 0; i < in.n; i++ {
		mi := int64(in.m[i])
		for a := 0; a < in.m[i]; a++ {
			r := Resource{Stage: i, Replica: a, Proc: in.proc[i][a], Name: in.ProcName(i, a)}
			r.Ccomp = in.comp[i][a].MulInt(m / mi).DivInt(m)
			if i > 0 {
				sum := rat.Zero()
				for j := int64(a); j < m; j += mi {
					sum = sum.Add(in.comm[i-1][j%int64(in.m[i-1])][a])
				}
				r.Cin = sum.DivInt(m)
			}
			if i < in.n-1 {
				sum := rat.Zero()
				for j := int64(a); j < m; j += mi {
					sum = sum.Add(in.comm[i][a][j%int64(in.m[i+1])])
				}
				r.Cout = sum.DivInt(m)
			}
			r.CexecOverlap = rat.Max(r.Cin, rat.Max(r.Ccomp, r.Cout))
			r.CexecStrict = r.Cin.Add(r.Ccomp).Add(r.Cout)
			out = append(out, r)
		}
	}
	return out
}

// TestResourcesMatchesMacroPeriod compares Resources with the O(m) macro-
// period loop on random instances: exact rational times with mixed
// denominators, and lcm-heavy replication vectors whose macro-period is
// far longer than any port's period. Values must agree in representation,
// not only in value, and so must both models' Mct.
func TestResourcesMatchesMacroPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	heavy := [][]int{{7, 8, 9}, {9, 10, 7, 8}, {5, 6, 7, 4}, {1, 10, 9}, {8, 3, 5, 7, 2}}
	for trial := 0; trial < 300; trial++ {
		var m []int
		if trial%3 == 0 {
			m = heavy[trial/3%len(heavy)]
		} else {
			m = make([]int, 2+rng.Intn(4))
			for i := range m {
				m[i] = 1 + rng.Intn(6)
			}
		}
		time := func() rat.Rat { return rat.New(1+rng.Int63n(500), 1+rng.Int63n(60)) }
		comp := make([][]rat.Rat, len(m))
		for i := range m {
			comp[i] = make([]rat.Rat, m[i])
			for a := range comp[i] {
				comp[i][a] = time()
			}
		}
		comm := make([][][]rat.Rat, len(m)-1)
		for i := range comm {
			comm[i] = make([][]rat.Rat, m[i])
			for a := range comm[i] {
				comm[i][a] = make([]rat.Rat, m[i+1])
				for b := range comm[i][a] {
					comm[i][a][b] = time()
				}
			}
		}
		in, err := FromTimes(comp, comm)
		if err != nil {
			t.Fatal(err)
		}
		got, want := in.Resources(), resourcesMacroPeriod(in)
		if len(got) != len(want) {
			t.Fatalf("m=%v: %d resources, want %d", m, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			same := g.Stage == w.Stage && g.Replica == w.Replica && g.Proc == w.Proc && g.Name == w.Name
			for _, p := range [][2]rat.Rat{{g.Cin, w.Cin}, {g.Ccomp, w.Ccomp}, {g.Cout, w.Cout}, {g.CexecOverlap, w.CexecOverlap}, {g.CexecStrict, w.CexecStrict}} {
				same = same && p[0].String() == p[1].String() && p[0].IsBig() == p[1].IsBig()
			}
			if !same {
				t.Fatalf("m=%v resource %d: got %+v, want %+v", m, k, g, w)
			}
		}
		for _, cm := range []CommModel{Overlap, Strict} {
			mct := rat.Zero()
			for _, r := range want {
				mct = rat.Max(mct, r.Cexec(cm))
			}
			if !in.Mct(cm).Equal(mct) {
				t.Fatalf("m=%v %v: Mct = %v, want %v", m, cm, in.Mct(cm), mct)
			}
		}
	}
}
