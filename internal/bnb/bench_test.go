package bnb

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// BenchmarkBnBSearch measures the exact search end to end: tree walk,
// bounding and per-leaf evaluation through a shared (memoizing) engine —
// the resident-service shape, where repeated searches over a stable
// population hit the cache. nodes/op and prunedPct track the tree the bound
// actually leaves; they are deterministic for a fixed case, so regressions
// in the bound or the symmetry breaking show up as count jumps, not noise.
// The strict case is the search-jobs benchmark's leaf-heavy problem (seed
// 2, 3 stages on 8 heterogeneous processors), the tree the strict
// cycle-time bound cuts.
func BenchmarkBnBSearch(b *testing.B) {
	strictRng := rand.New(rand.NewSource(2))
	strictPipe := pipeline.Random(strictRng, 3, 50, 500)
	cases := []struct {
		name string
		pipe *pipeline.Pipeline
		plat *platform.Platform
		cm   model.CommModel
	}{
		{
			name: "uniform-10x4",
			pipe: pipeline.Random(rand.New(rand.NewSource(1)), 4, 50, 500),
			plat: platform.Uniform(10, 12, 100),
		},
		{
			name: "het-7x3",
			pipe: pipeline.Random(rand.New(rand.NewSource(2)), 3, 50, 500),
			plat: platform.Random(rand.New(rand.NewSource(2)), 7, 5, 25, 20, 200),
		},
		{
			name: "strict-het-3x8",
			pipe: strictPipe,
			plat: platform.Random(strictRng, 8, 5, 25, 20, 200),
			cm:   model.Strict,
		},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng := engine.New(engine.Options{})
			var last Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Search(context.Background(), eng, c.pipe, c.plat, c.cm, Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			if !last.Proven {
				b.Fatal("benchmark search did not prove its answer")
			}
			b.ReportMetric(float64(last.Stats.Nodes), "nodes/op")
			b.ReportMetric(float64(last.Stats.Leaves), "leaves/op")
			if total := last.Stats.Leaves + last.Stats.Pruned; total > 0 {
				b.ReportMetric(100*float64(last.Stats.Pruned)/float64(total), "prunedPct")
			}
		})
	}
}

// BenchmarkBnBLeafRate isolates the leaf-evaluation throughput the exact
// cutoff buys, over a fixed list of leaves every one of which must be ruled
// out at the proven optimum: "exact" runs model.FromMapped and a full
// engine Evaluate per leaf, the leaf path without a cutoff; "screened" runs
// the walker's own leaf path (walker.leaf, the reference at the optimum),
// which evaluates each leaf through engine.EvaluateBelow. The list is built
// once, outside the timer: every class-canonical leaf of the family whose
// computation bound max_i w_i/(m_i·s_i) is below the optimum
// (leafRateLeaves), so the search's other bounds do not decide which leaves
// are timed. Memoization is disabled: a shared memo cache would turn repeat
// iterations into hash-map lookups and fake the comparison. The leaves/s
// metric is what the CI gate in scripts/benchjson.awk checks: screened must
// be at least LEAF_GATE x the exact rate. The strict model on a
// heterogeneous platform is the family where exact arithmetic is at its
// most expensive — unfolded-TPN Karp tables over rationals whose
// denominators mix speeds and bandwidths.
func BenchmarkBnBLeafRate(b *testing.B) {
	pipe := pipeline.Random(rand.New(rand.NewSource(3)), 3, 50, 500)
	plat := platform.Random(rand.New(rand.NewSource(3)), 8, 5, 25, 20, 200)
	opt, err := Search(context.Background(), engine.New(engine.Options{}), pipe, plat, model.Strict, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !opt.Proven {
		b.Fatal("warm-up search did not prove its answer")
	}
	pr, err := newProblem(pipe, plat, model.Strict, Options{})
	if err != nil {
		b.Fatal(err)
	}
	leaves := leafRateLeaves(pr, opt.Period)
	report := func(b *testing.B, ruledOut, screened int64) {
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(ruledOut)*float64(b.N)/elapsed, "leaves/s")
		}
		b.ReportMetric(float64(screened), "screened/op")
		b.ReportMetric(float64(ruledOut), "leaves/op")
	}
	b.Run("exact", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheEntries: -1})
		mapps := make([]mapping.Mapping, len(leaves))
		for k, reps := range leaves {
			mapps[k].Replicas = cloneReplicas(reps)
			for _, r := range mapps[k].Replicas {
				slices.Sort(r)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range mapps {
				inst, err := model.FromMapped(pipe, plat, &mapps[k])
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Evaluate(engine.Task{Inst: inst, Model: model.Strict})
				if err != nil || res.Period.Less(opt.Period) {
					b.Fatalf("leaf %v: period %v (err %v) beats the optimum %v", mapps[k].Replicas, res.Period, err, opt.Period)
				}
			}
		}
		b.StopTimer()
		report(b, int64(len(leaves)), 0)
	})
	b.Run("screened", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheEntries: -1})
		root := &node{used: make([]int, len(pr.classes)), free: plat.NumProcs()}
		w := newWalker(pr, context.Background(), eng, root, 0, pr.n, nil, opt.Period, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.st = Stats{}
			for _, reps := range leaves {
				copy(w.replicas, reps)
				w.leaf()
			}
		}
		b.StopTimer()
		if w.best != nil || w.st.Leaves != int64(len(leaves)) || w.st.Screened != w.st.Leaves {
			b.Fatalf("re-verification changed the answer: best %v, %d of %d leaves evaluated, %d screened", w.best, w.st.Leaves, len(leaves), w.st.Screened)
		}
		report(b, w.st.Leaves, w.st.Screened)
	})
}

// leafRateLeaves lists the class-canonical leaves of pr — the complete
// mappings the walker's enumeration reaches when nothing is pruned — whose
// computation bound max_i w_i/(m_i·s_i), s_i the slowest speed in stage
// i's set, is below period.
func leafRateLeaves(pr *problem, period rat.Rat) [][][]int {
	root := &node{used: make([]int, len(pr.classes)), free: pr.plat.NumProcs()}
	w := newWalker(pr, context.Background(), nil, root, 0, pr.n, nil, rat.Rat{}, false)
	var leaves [][][]int
	var rec func(stage, c int, below bool)
	rec = func(stage, c int, below bool) {
		if c == len(pr.classes) {
			set := w.replicas[stage]
			if len(set) == 0 {
				return
			}
			slowest := pr.plat.Speeds[set[0]]
			for _, u := range set {
				slowest = min(slowest, pr.plat.Speeds[u])
			}
			below = below && period.CmpFrac(pr.work(stage), int64(len(set)), slowest) > 0
			if stage+1 < pr.n {
				rec(stage+1, 0, below)
			} else if below {
				leaves = append(leaves, cloneReplicas(w.replicas))
			}
			return
		}
		maxT := max(0, min(w.free-(pr.n-stage-1), len(pr.classes[c].members)-w.used[c]))
		for t := maxT; t >= 0; t-- {
			if t > 0 {
				w.take(stage, c, t)
			}
			rec(stage, c+1, below)
			if t > 0 {
				w.give(stage, c, t)
			}
		}
	}
	rec(0, 0, true)
	return leaves
}
