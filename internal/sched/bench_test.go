package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
)

// BenchmarkBestOf runs one cold best-of search per op (a fresh engine, the
// same rng seed) on fixed problems of the search-jobs size: overlap
// problems of 3–4 stages on 6–8 processors, whose random-search and
// annealing candidates go through the column evaluator, and one strict
// problem, whose candidates go through the engine. column-solves/op counts
// the communication columns whose pattern graphs were built and solved.
func BenchmarkBestOf(b *testing.B) {
	cases := []struct {
		name          string
		seed          int64
		stages, procs int
		cm            model.CommModel
	}{
		{"overlap-3x6", 31, 3, 6, model.Overlap},
		{"overlap-4x7", 32, 4, 7, model.Overlap},
		{"overlap-3x8", 33, 3, 8, model.Overlap},
		{"overlap-4x8", 34, 4, 8, model.Overlap},
		{"strict-3x6", 35, 3, 6, model.Strict},
	}
	for _, c := range cases {
		pipe, plat := goldenProblem(c.seed, c.stages, c.procs, false)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			solves := columnSolves.Load()
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{Workers: 1})
				if _, err := BestOfEngine(context.Background(), eng, pipe, plat, c.cm, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(columnSolves.Load()-solves)/float64(b.N), "column-solves/op")
		})
	}
}
