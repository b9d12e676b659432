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

// randomTimesInstance draws an instance with replication counts m and
// operation times from time.
func randomTimesInstance(tb testing.TB, m []int, time func() rat.Rat) *Instance {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return in
}

// TestMctFracMatchesRational checks Mct's fraction pass against its exact
// rational pass, in representation, on integer and mixed-denominator
// times, and pins where the fraction pass hands over: denominators whose
// lcm passes int64, a sum past int64 and big operands take the rational
// pass and still agree with it. Mct allocates nothing on
// the fraction pass.
func TestMctFracMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	times := map[string]func() rat.Rat{
		"integer":    func() rat.Rat { return rat.FromInt(1 + rng.Int63n(1000)) },
		"fractional": func() rat.Rat { return rat.New(1+rng.Int63n(500), 1+rng.Int63n(60)) },
		"primes": func() rat.Rat {
			primes := []int64{1_000_003, 1_000_033, 1_000_037, 1_000_039}
			return rat.New(1+rng.Int63n(9), primes[rng.Intn(len(primes))])
		},
		"huge": func() rat.Rat { return rat.FromInt(1<<62 + rng.Int63n(1<<40)) },
	}
	wantFrac := map[string]bool{"integer": true, "fractional": true}
	for name, time := range times {
		for trial := 0; trial < 60; trial++ {
			m := make([]int, 2+rng.Intn(4))
			for i := range m {
				m[i] = 1 + rng.Intn(6)
			}
			in := randomTimesInstance(t, m, time)
			for _, cm := range []CommModel{Overlap, Strict} {
				got, want := in.Mct(cm), in.mctRat(cm)
				if got.String() != want.String() || got.IsBig() != want.IsBig() {
					t.Fatalf("%s m=%v %v: Mct %v, rational pass %v", name, m, cm, got, want)
				}
				_, ok := in.mctFrac(cm)
				if wantFrac[name] && !ok {
					t.Fatalf("%s m=%v %v: fraction pass overflowed", name, m, cm)
				}
				if name == "huge" && cm == Strict && ok {
					t.Fatalf("m=%v: a strict sum past int64 stayed on the fraction pass", m)
				}
			}
		}
	}
	big, _ := rat.Parse("100000000000000000000000000000/7")
	in := randomTimesInstance(t, []int{2, 3}, func() rat.Rat { return big })
	for _, cm := range []CommModel{Overlap, Strict} {
		if _, ok := in.mctFrac(cm); ok {
			t.Fatal("big operands stayed on the fraction pass")
		}
		if got, want := in.Mct(cm), in.mctRat(cm); got.String() != want.String() || !got.IsBig() {
			t.Fatalf("big %v: Mct %v, rational pass %v", cm, got, want)
		}
	}
	in = randomTimesInstance(t, []int{3, 4, 5}, times["fractional"])
	if allocs := testing.AllocsPerRun(20, func() { in.Mct(Strict) }); allocs != 0 {
		t.Fatalf("Mct: %v allocs/op", allocs)
	}
}

// BenchmarkMct times Mct on a four-stage instance replicated (3, 4, 5, 2),
// on integer times (Table 2) and on speed/bandwidth fractions (a search
// on a heterogeneous platform), next to the exact rational pass it
// replaces.
func BenchmarkMct(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		time func() rat.Rat
	}{
		{"integer", func() rat.Rat { return rat.FromInt(5 + rng.Int63n(1000)) }},
		{"fractional", func() rat.Rat { return rat.New(50+rng.Int63n(450), 5+rng.Int63n(20)) }},
	} {
		in := randomTimesInstance(b, []int{3, 4, 5, 2}, tc.time)
		for _, pass := range []string{"frac", "rat"} {
			b.Run(tc.name+"/"+pass, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, cm := range []CommModel{Overlap, Strict} {
						if pass == "frac" {
							in.Mct(cm)
						} else {
							in.mctRat(cm)
						}
					}
				}
			})
		}
	}
}
