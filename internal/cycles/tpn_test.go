package cycles_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/examplesdata"
	"repro/internal/exper"
	"repro/internal/model"
	"repro/internal/rat"
	"repro/internal/tpn"
	"repro/internal/workload"
)

// strictSystem builds the cycle-ratio system of inst's unfolded strict TPN.
func strictSystem(tb testing.TB, inst *model.Instance) *cycles.System {
	tb.Helper()
	net, err := tpn.BuildStrict(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return net.System()
}

// heterogeneousInstance draws an instance in the heterogeneous cost model:
// stage work w over processor speed s and file size δ over bandwidth b, so
// costs are fractions with unrelated denominators.
func heterogeneousInstance(rng *rand.Rand, reps []int) (*model.Instance, error) {
	speed := func() int64 { return 1 + rng.Int63n(9) }
	comp := make([][]rat.Rat, len(reps))
	for i := range comp {
		w := 10 + rng.Int63n(90)
		comp[i] = make([]rat.Rat, reps[i])
		for a := range comp[i] {
			comp[i][a] = rat.New(w, speed())
		}
	}
	comm := make([][][]rat.Rat, len(reps)-1)
	for i := range comm {
		delta := 5 + rng.Int63n(45)
		comm[i] = make([][]rat.Rat, reps[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, reps[i+1])
			for b := range comm[i][a] {
				comm[i][a][b] = rat.New(delta, speed())
			}
		}
	}
	return model.FromTimes(comp, comm)
}

// TestTPNIntPathMatchesRational runs strict-model TPN systems — integer
// costs from the Table 2 generator and heterogeneous w/s costs — through
// both arithmetics of the contraction engine: the int64 path must be taken
// and give a bit-identical ratio and witness, and the ratio must match
// Howard's.
func TestTPNIntPathMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	grid := workload.Spec{Stages: 4, Procs: 12, CompLo: 5, CompHi: 1000, CommLo: 5, CommHi: 1000, MaxPathCount: 420}
	for trial := 0; trial < 24; trial++ {
		var inst *model.Instance
		var err error
		if trial%2 == 0 {
			inst, err = grid.Instance(rng)
		} else {
			inst, err = heterogeneousInstance(rng, []int{1 + rng.Intn(3), 1 + rng.Intn(4), 1 + rng.Intn(3)})
		}
		if err != nil {
			t.Fatal(err)
		}
		s := strictSystem(t, inst)
		var wi, wr cycles.Workspace
		wr.SetForceRational(true)
		got, err := wi.MaxRatio(s)
		if err != nil {
			t.Fatal(err)
		}
		if !wi.UsedInt() {
			t.Fatalf("trial %d: TPN system took the rational path", trial)
		}
		want, err := wr.MaxRatio(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ratio.String() != want.Ratio.String() || !slices.Equal(got.Cycle, want.Cycle) {
			t.Fatalf("trial %d: int64 %v %v vs rational %v %v", trial, got.Ratio, got.Cycle, want.Ratio, want.Cycle)
		}
		how, err := s.MaxRatioHoward()
		if err != nil {
			t.Fatal(err)
		}
		if !how.Ratio.Equal(got.Ratio) {
			t.Fatalf("trial %d: karp %v != howard %v", trial, got.Ratio, how.Ratio)
		}
	}
}

// BenchmarkContraction times the contraction + Karp engine on its scaled
// int64 path and with the rational loops forced, on a Table 2 grid-size
// strict TPN ((10,20), comp and comm 5-15) and on the m = 2520 net of the
// benchmark warm-up (4 stages replicated 5, 7, 8 and 9 times).
func BenchmarkContraction(b *testing.B) {
	gridInst, err := workload.Spec{Stages: 10, Procs: 20, CompLo: 5, CompHi: 15, CommLo: 5, CommHi: 15,
		MaxPathCount: exper.DefaultMaxPathCount}.Instance(rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	ceilInst, err := exper.RandomTimedInstance(rand.New(rand.NewSource(1<<40)), []int{5, 7, 8, 9}, 5, 15)
	if err != nil {
		b.Fatal(err)
	}
	for _, net := range []struct {
		name string
		inst *model.Instance
	}{{"grid", gridInst}, {"m2520", ceilInst}} {
		s := strictSystem(b, net.inst)
		for _, arith := range []string{"int", "rat"} {
			b.Run(net.name+"/"+arith, func(b *testing.B) {
				var ws cycles.Workspace
				ws.SetForceRational(arith == "rat")
				if _, err := ws.MaxRatio(s); err != nil {
					b.Fatal(err)
				}
				if ws.UsedInt() != (arith == "int") {
					b.Fatalf("%s run took the other arithmetic", arith)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ws.MaxRatio(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngines times Lawler's float binary search on the Figure 10
// sub-TPN system, the system the root package's BenchmarkEngines times the
// exact engines on; the record keeps its BenchmarkEngines/lawler-float name.
func BenchmarkEngines(b *testing.B) {
	net, err := tpn.BuildOverlap(examplesdata.ExampleB())
	if err != nil {
		b.Fatal(err)
	}
	sys := net.System()
	b.Run("lawler-float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.MaxRatioLawler(1e-9); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMctCheckGrid runs the potential check at λ = Mct·m (the one
// core.Solver.PeriodTPN runs before Karp) and the full contraction + Karp
// sweep on every strict instance of seed 1's Table 2 grid, drawn as
// exper.RunAllEngine draws them. Net builds and plan compiles are not
// timed. It reports how often the check holds, how many calls left the
// int64 path, and per call its rounds, its time and the sweep's time,
// split by whether the check held (P = Mct) or failed (P > Mct).
func BenchmarkMctCheckGrid(b *testing.B) {
	var ws cycles.Workspace
	var calls, hits, hitRounds, missRounds, ratCalls int
	var checkHit, karpHit, checkMiss, karpMiss time.Duration
	for i := 0; i < b.N; i++ {
		cm := model.Strict
		for r, row := range exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount) {
			rowSeed := 1 + int64(r)*1_000_003 + int64(cm)*7_000_009
			for k := 0; k < row.Runs; k++ {
				js := rowSeed + int64(k)
				inst, err := row.Specs[int(js)%len(row.Specs)].Instance(rand.New(rand.NewSource(js)))
				if err != nil {
					b.Fatal(err)
				}
				s := strictSystem(b, inst)
				p := ws.Compile(s)
				lambda := inst.Mct(cm).MulInt(inst.PathCount())
				t0 := time.Now()
				ok, err := ws.RatioAtMostPlan(p, s, lambda)
				t1 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				calls++
				rounds := ws.CheckRounds()
				if !ws.UsedInt() {
					ratCalls++
				}
				crit, err := ws.MaxRatioPlan(p, s)
				t2 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				if ok != crit.Ratio.Equal(lambda) {
					b.Fatalf("row %d instance %d: check %v, Karp %v, Mct·m %v", r, k, ok, crit.Ratio, lambda)
				}
				if ok {
					hits++
					hitRounds += rounds
					checkHit += t1.Sub(t0)
					karpHit += t2.Sub(t1)
				} else {
					missRounds += rounds
					checkMiss += t1.Sub(t0)
					karpMiss += t2.Sub(t1)
				}
			}
		}
	}
	perCall := func(x float64, n int) float64 { return x / float64(max(n, 1)) }
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
	b.ReportMetric(perCall(float64(hitRounds), hits), "rounds/hit")
	b.ReportMetric(perCall(float64(missRounds), calls-hits), "rounds/miss")
	b.ReportMetric(float64(ratCalls)/float64(b.N), "rat-calls/op")
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) }
	b.ReportMetric(perCall(us(checkHit), hits), "check-us/hit")
	b.ReportMetric(perCall(us(karpHit), hits), "karp-us/hit")
	b.ReportMetric(perCall(us(checkMiss), calls-hits), "check-us/miss")
	b.ReportMetric(perCall(us(karpMiss), calls-hits), "karp-us/miss")
}
