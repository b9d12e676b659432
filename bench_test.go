package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices called out in DESIGN.md
// (cycle-ratio engine, polynomial vs unfolded-TPN computation, duplication
// scaling). EXPERIMENTS.md records the paper-vs-measured comparison; run
// with
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/examplesdata"
	"repro/internal/exper"
	"repro/internal/gantt"
	"repro/internal/model"
	"repro/internal/mpa"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/tpn"
)

// BenchmarkTable1Paths regenerates Table 1: the round-robin paths of the
// first data sets of Example A (m = lcm(1,2,3,1) = 6 distinct paths).
func BenchmarkTable1Paths(b *testing.B) {
	mapp := examplesdata.ExampleAMapping()
	for i := 0; i < b.N; i++ {
		paths := mapp.Paths()
		if len(paths) != 6 {
			b.Fatal("wrong path count")
		}
	}
}

// BenchmarkFig2ExampleAOverlap reproduces §4.1 on Example A (Figure 2):
// overlap period 189 with the critical resource at P0's output port.
func BenchmarkFig2ExampleAOverlap(b *testing.B) {
	inst := examplesdata.ExampleA()
	for i := 0; i < b.N; i++ {
		res, err := core.PeriodOverlapPoly(inst)
		if err != nil || !res.Period.Equal(rat.FromInt(189)) {
			b.Fatalf("period %v err %v", res.Period, err)
		}
	}
}

// BenchmarkFig4OverlapTPNBuild constructs the full OVERLAP net of Figure 4
// (6x7 grid, 96 places), including validation.
func BenchmarkFig4OverlapTPNBuild(b *testing.B) {
	inst := examplesdata.ExampleA()
	for i := 0; i < b.N; i++ {
		if _, err := tpn.BuildOverlap(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5StrictTPNBuild constructs the STRICT net of Figure 5.
func BenchmarkFig5StrictTPNBuild(b *testing.B) {
	inst := examplesdata.ExampleA()
	for i := 0; i < b.N; i++ {
		if _, err := tpn.BuildStrict(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ExampleB reproduces the Example B numbers of §4.1: overlap
// Mct = 3100/12 strictly below the period 3500/12 (no critical resource).
func BenchmarkFig6ExampleB(b *testing.B) {
	inst := examplesdata.ExampleB()
	want := rat.New(3500, 12)
	for i := 0; i < b.N; i++ {
		res, err := core.PeriodOverlapPoly(inst)
		if err != nil || !res.Period.Equal(want) || res.HasCriticalResource() {
			b.Fatalf("res %+v err %v", res, err)
		}
	}
}

// BenchmarkFig7GanttExampleAStrict regenerates Figure 7: simulate the
// strict schedule of Example A and render the steady-state Gantt chart.
func BenchmarkFig7GanttExampleAStrict(b *testing.B) {
	inst := examplesdata.ExampleA()
	for i := 0; i < b.N; i++ {
		tr, err := sim.Run(inst, model.Strict, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := gantt.RenderSteadyState(io.Discard, tr, rat.FromInt(1384), 4, 2, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ExampleAStrict reproduces §4.2: the strict period 1384/6 via
// the unfolded TPN (the cross-column critical cycles of Figure 8).
func BenchmarkFig8ExampleAStrict(b *testing.B) {
	inst := examplesdata.ExampleA()
	want := rat.New(1384, 6)
	for i := 0; i < b.N; i++ {
		res, err := core.PeriodTPN(inst, model.Strict)
		if err != nil || !res.Period.Equal(want) {
			b.Fatalf("period %v err %v", res.Period, err)
		}
	}
}

// BenchmarkFig9SubTPN extracts the F1-column sub-TPN of Example A
// (Figure 9) and computes its critical cycle.
func BenchmarkFig9SubTPN(b *testing.B) {
	inst := examplesdata.ExampleA()
	net, err := tpn.BuildOverlap(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := net.SubNetByCols(3)
		if _, err := sub.MaxCycleRatio(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SubTPN does the same for Example B's single communication
// column (Figure 10), whose critical cycle mixes sender and receiver
// circuits and determines the whole system's period.
func BenchmarkFig10SubTPN(b *testing.B) {
	inst := examplesdata.ExampleB()
	net, err := tpn.BuildOverlap(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := net.SubNetByCols(1)
		res, err := sub.MaxCycleRatio()
		if err != nil || !res.Ratio.Equal(rat.FromInt(3500)) {
			b.Fatalf("ratio %v err %v", res.Ratio, err)
		}
	}
}

// BenchmarkFig12GanttExampleB regenerates Figure 12: the first periods of
// Example B's overlap schedule.
func BenchmarkFig12GanttExampleB(b *testing.B) {
	inst := examplesdata.ExampleB()
	for i := 0; i < b.N; i++ {
		tr, err := sim.Run(inst, model.Overlap, 6)
		if err != nil {
			b.Fatal(err)
		}
		if err := gantt.RenderSteadyState(io.Discard, tr, rat.FromInt(3500), 2, 3, 105); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13PatternReduction exercises the Theorem 1 machinery on
// Example C (Figures 11/13/14): the F1 column decomposes into p = 3
// components of 7x9 pattern graphs although the unfolded net would need
// m = 10395 rows.
func BenchmarkFig13PatternReduction(b *testing.B) {
	inst := examplesdata.ExampleC()
	for i := 0; i < b.N; i++ {
		pat := core.NewCommPattern(inst, 1)
		if pat.P != 3 || pat.U != 7 || pat.V != 9 || pat.C != 55 {
			b.Fatalf("pattern %+v", pat)
		}
		for g := 0; g < pat.P; g++ {
			if _, err := pat.ComponentPeriodCandidate(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig11ExampleCFullPeriod runs the complete polynomial algorithm on
// Example C — the case the general method cannot unfold tractably.
func BenchmarkFig11ExampleCFullPeriod(b *testing.B) {
	inst := examplesdata.ExampleC()
	for i := 0; i < b.N; i++ {
		if _, err := core.PeriodOverlapPoly(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable2Row runs a scaled-down Table 2 row (the full campaign is
// cmd/table2; these benches keep the per-row machinery honest).
func benchTable2Row(b *testing.B, cm model.CommModel, rowIdx, runs int) {
	rows := exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount)
	row := rows[rowIdx]
	row.Runs = runs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Run(row, int64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 covers every row of Table 2 at reduced run counts, both
// models.
func BenchmarkTable2(b *testing.B) {
	for _, cm := range model.Models() {
		for idx, row := range exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount) {
			runs := 4
			if row.Runs >= 1000 {
				runs = 20
			}
			b.Run(fmt.Sprintf("%v/%s", cm, row.Label), func(b *testing.B) {
				benchTable2Row(b, cm, idx, runs)
			})
		}
	}
}

// BenchmarkScalingDuplication measures how the evaluation cost grows with
// the duplication factor (the paper reports 2 s to 150,000 s for 10 stages
// on 20 processors, dominated by the lcm blow-up of the unfolded net). The
// polynomial algorithm's advantage over the general method is the paper's
// Theorem 1 headline.
func BenchmarkScalingDuplication(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	for _, reps := range [][]int{
		{2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {11, 13},
	} {
		inst := randomWithReps(rng, reps, 5, 15)
		b.Run(fmt.Sprintf("poly/m=%d", inst.PathCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PeriodOverlapPoly(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tpn/m=%d", inst.PathCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PeriodTPN(inst, model.Overlap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPeriodStrict is the acceptance benchmark of the zero-allocation
// solver refactor: one strict-model evaluation (full unfolded-TPN
// construction + critical cycle) through three paths. "fresh-solver"
// allocates a new solver context per call — what a per-call (non-reusing)
// path costs under the refactored code; the true pre-refactor free-function
// path was far heavier still (1322 allocs/op on Example A strict, see the
// before/after table in EXPERIMENTS.md). "free-function" is today's
// core.PeriodTPN, which borrows from a pool of package-default solvers;
// "reused-solver" holds one core.Solver the way each engine worker does.
// Run with -benchmem: the reused solver must show >= 10x fewer allocs/op
// than fresh-solver.
func BenchmarkPeriodStrict(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	inst := randomWithReps(rng, []int{4, 6}, 5, 15) // m = 12, 3 columns
	want, err := core.PeriodTPN(inst, model.Strict)
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, res core.Result, err error) {
		if err != nil || !res.Period.Equal(want.Period) {
			b.Fatalf("period %v err %v", res.Period, err)
		}
	}
	b.Run("fresh-solver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.NewSolver().PeriodTPN(inst, model.Strict)
			check(b, res, err)
		}
	})
	b.Run("free-function", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.PeriodTPN(inst, model.Strict)
			check(b, res, err)
		}
	})
	b.Run("reused-solver", func(b *testing.B) {
		b.ReportAllocs()
		s := core.NewSolver()
		for i := 0; i < b.N; i++ {
			res, err := s.PeriodTPN(inst, model.Strict)
			check(b, res, err)
		}
	})
}

// BenchmarkPeriodOverlapPoly measures the Theorem 1 polynomial path through
// a reused solver vs a fresh context per call.
func BenchmarkPeriodOverlapPoly(b *testing.B) {
	inst := examplesdata.ExampleC() // m = 10395, every pattern graph <= 7x9
	b.Run("fresh-solver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewSolver().PeriodOverlapPoly(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-solver", func(b *testing.B) {
		b.ReportAllocs()
		s := core.NewSolver()
		for i := 0; i < b.N; i++ {
			if _, err := s.PeriodOverlapPoly(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPeriodBackends races the two exact cycle-ratio backends — cycle
// iteration on the compiled plan from 0 (the "karp" arm, the name the plan
// route keeps) vs Howard policy iteration — on the strict-model unfolded
// nets of the scaling families. EXPERIMENTS.md records the measured table.
func BenchmarkPeriodBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	for _, reps := range [][]int{{2, 3}, {4, 5}, {6, 7}, {8, 9}, {11, 13}, {13, 16}} {
		inst := randomWithReps(rng, reps, 5, 15)
		net, err := tpn.Build(inst, model.Strict)
		if err != nil {
			b.Fatal(err)
		}
		sys := net.System()
		var ws cycles.Workspace
		want, err := ws.MaxRatio(sys)
		if err != nil {
			b.Fatal(err)
		}
		check := func(b *testing.B, res cycles.Result, err error) {
			if err != nil || !res.Ratio.Equal(want.Ratio) {
				b.Fatalf("ratio %v err %v, want %v", res.Ratio, err, want.Ratio)
			}
		}
		b.Run(fmt.Sprintf("karp/m=%d", inst.PathCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ws.MaxRatio(sys)
				check(b, res, err)
			}
		})
		b.Run(fmt.Sprintf("howard/m=%d", inst.PathCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ws.MaxRatioHoward(sys)
				check(b, res, err)
			}
		})
	}
}

// BenchmarkSpectralBackends races the backends on the max-plus recurrence
// matrices of the scaling families — the mpa route, where every precedence
// edge carries a token and the auto heuristic's token-edge count routes to
// Howard. The "karp" arm is cycle iteration on the compiled plan; the
// measured table is in EXPERIMENTS.md.
func BenchmarkSpectralBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	for _, reps := range [][]int{{2, 3}, {4, 5}, {6, 7}, {8, 9}, {11, 13}} {
		inst := randomWithReps(rng, reps, 5, 15)
		net, err := tpn.Build(inst, model.Strict)
		if err != nil {
			b.Fatal(err)
		}
		a, err := mpa.FromNet(net)
		if err != nil {
			b.Fatal(err)
		}
		sys := a.PrecedenceSystem()
		var ws cycles.Workspace
		want, err := ws.MaxRatioHoward(sys)
		if err != nil {
			b.Fatal(err)
		}
		check := func(b *testing.B, res cycles.Result, err error) {
			if err != nil || !res.Ratio.Equal(want.Ratio) {
				b.Fatalf("ratio %v err %v, want %v", res.Ratio, err, want.Ratio)
			}
		}
		name := fmt.Sprintf("m=%d/V=%d/E=%d", inst.PathCount(), sys.G.N, len(sys.G.Edges))
		b.Run("karp/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ws.MaxRatio(sys)
				check(b, res, err)
			}
		})
		b.Run("howard/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ws.MaxRatioHoward(sys)
				check(b, res, err)
			}
		})
	}
}

// BenchmarkEngines ablates the two exact cycle-ratio engines on the
// Figure 10 sub-TPN system (the float Lawler search, a test-only helper, is
// timed on the same system by internal/cycles' BenchmarkEngines). The
// "contract+karp" arm times System.MaxRatio, cycle iteration now; it keeps
// the name of the engine it replaced so the records line up.
func BenchmarkEngines(b *testing.B) {
	inst := examplesdata.ExampleB()
	net, err := tpn.BuildOverlap(inst)
	if err != nil {
		b.Fatal(err)
	}
	sys := net.System()
	b.Run("contract+karp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.MaxRatio(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("howard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.MaxRatioHoward(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineBatch measures the batch-evaluation engine against the
// serial loop on a fixed batch of strict-model instances (each one a full
// unfolded-TPN critical-cycle computation — the heavy, uneven workload the
// work-stealing pool is built for). On a multi-core host the workers=4 run
// should complete the batch at least 2x faster than workers=1; on a
// single-core container the sub-benchmarks collapse to the same wall time,
// which is itself the determinism guarantee at work (identical results,
// identical totals). Memoization is disabled so every task is computed.
func BenchmarkEngineBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	tasks := make([]engine.Task, 32)
	for k := range tasks {
		tasks[k] = engine.Task{
			Inst:  randomWithReps(rng, []int{6, 7}, 5, 15),
			Model: model.Strict,
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tk := range tasks {
				if _, err := core.Period(tk.Inst, tk.Model); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: workers, CacheEntries: -1})
			for i := 0; i < b.N; i++ {
				outs, err := eng.EvaluateBatch(context.Background(), tasks)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != len(tasks) {
					b.Fatal("short batch")
				}
			}
		})
	}
}

// BenchmarkEngineMemoization measures the memo cache on the mapping-search
// access pattern: the same candidate instances evaluated repeatedly.
func BenchmarkEngineMemoization(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]engine.Task, 16)
	for k := range tasks {
		tasks[k] = engine.Task{
			Inst:  randomWithReps(rng, []int{2, 3}, 5, 15),
			Model: model.Overlap,
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: 1, CacheEntries: -1})
			if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: 1})
		if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.EvaluateBatch(context.Background(), tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulators compares the TPN unrolling against the operational
// simulator on Example A.
func BenchmarkSimulators(b *testing.B) {
	inst := examplesdata.ExampleA()
	b.Run("tpn-unroll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(inst, model.Overlap, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("operational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunOperational(inst, model.Overlap, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// randomWithReps draws an instance with the given replication counts and
// uniform integer operation times.
func randomWithReps(rng *rand.Rand, reps []int, lo, hi int64) *model.Instance {
	draw := func() rat.Rat { return rat.FromInt(lo + rng.Int63n(hi-lo+1)) }
	comp := make([][]rat.Rat, len(reps))
	for i, r := range reps {
		comp[i] = make([]rat.Rat, r)
		for a := range comp[i] {
			comp[i][a] = draw()
		}
	}
	comm := make([][][]rat.Rat, len(reps)-1)
	for i := range comm {
		comm[i] = make([][]rat.Rat, reps[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, reps[i+1])
			for bIdx := range comm[i][a] {
				comm[i][a][bIdx] = draw()
			}
		}
	}
	inst, err := model.FromTimes(comp, comm)
	if err != nil {
		panic(err)
	}
	return inst
}
