package sched

import (
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// checkColumns compares one evaluation with core.Period(model.FromMapped):
// the same period, or the same error.
func checkColumns(t *testing.T, e *columnEvaluator, pipe *pipeline.Pipeline, plat *platform.Platform, replicas [][]int) {
	t.Helper()
	want, wantErr := Evaluate(pipe, plat, &mapping.Mapping{Replicas: replicas}, model.Overlap)
	got, err := e.period(replicas)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%v: error %v, FromMapped + core.Period: %v", replicas, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%v: error %q, FromMapped + core.Period: %q", replicas, err, wantErr)
		}
	case got.String() != want.String():
		t.Fatalf("%v: period %v, FromMapped + core.Period: %v", replicas, got, want)
	}
}

// unsortedPartition gives every stage one random processor, scatters about
// half of the rest, and leaves each list in draw order.
func unsortedPartition(rng *rand.Rand, n, p int) [][]int {
	perm := rng.Perm(p)
	replicas := make([][]int, n)
	for i := range replicas {
		replicas[i] = []int{perm[i]}
	}
	for _, u := range perm[n:] {
		if rng.Intn(2) == 0 {
			i := rng.Intn(n)
			replicas[i] = append(replicas[i], u)
		}
	}
	return replicas
}

// TestColumnEvaluatorMatchesFromMapped is the evaluator's differential test
// on generated overlap families, dense and sparse (missing links), whose
// transfers outweigh their computations so that the communication columns
// set the period. One evaluator per problem sees each partition in several
// forms, so its memo answers many columns:
//   - every list reshuffled: round-robin order changes a column's value, so
//     a key that treated a list as a set would return a stale one (reversing
//     every list at once would not show it: that only reverses the pattern
//     graphs' cycles);
//   - the lists rotated across stages: the same two lists then carry
//     another file, so a key without the stage index would too.
func TestColumnEvaluatorMatchesFromMapped(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := n + 1 + rng.Intn(5)
		work := make([]int64, n)
		files := make([]int64, n-1)
		for i := range work {
			work[i] = 10 + rng.Int63n(40)
		}
		for i := range files {
			files[i] = 200 + rng.Int63n(1800)
		}
		pipe := pipeline.MustNew(work, files)
		plat := platform.Random(rng, p, 5, 25, 20, 200)
		if seed%2 == 0 {
			for u := range plat.Bandwidths {
				for v := range plat.Bandwidths[u] {
					if u != v && rng.Intn(4) == 0 {
						plat.Bandwidths[u][v] = 0
					}
				}
			}
		}
		backend := cycles.BackendAuto
		if seed%3 == 0 {
			backend = cycles.BackendHoward
		}
		e := newColumnEvaluator(backend, pipe, plat)
		for k := 0; k < 30; k++ {
			base := unsortedPartition(rng, n, p)
			checkColumns(t, e, pipe, plat, base)
			shuffled := cloneReplicas(base)
			for _, procs := range shuffled {
				rng.Shuffle(len(procs), func(a, b int) { procs[a], procs[b] = procs[b], procs[a] })
			}
			checkColumns(t, e, pipe, plat, shuffled)
			for r := 1; r < n; r++ {
				rotated := make([][]int, n)
				for i := range rotated {
					rotated[i] = base[(i+r)%n]
				}
				checkColumns(t, e, pipe, plat, rotated)
			}
		}
	}
}

// TestColumnEvaluatorErrors checks error parity on inputs the walks never
// generate: invalid mappings, a wrong stage count, an invalid pipeline or
// platform, and a path count lcm(m_i) past int64.
func TestColumnEvaluatorErrors(t *testing.T) {
	pipe, plat := goldenProblem(41, 3, 6, false)
	e := newColumnEvaluator(cycles.BackendAuto, pipe, plat)
	for _, replicas := range [][][]int{
		nil,
		{{0}, {}, {2}},
		{{0}, {1, 6}, {2}},
		{{0}, {1, -1}, {2}},
		{{0, 0}, {1}, {2}},
		{{0, 3}, {1}, {3, 2}},
		{{0}, {1}},
		{{0}, {1}, {2}, {3}},
		{{5, 0}, {4, 1}, {3, 2}},
	} {
		checkColumns(t, e, pipe, plat, replicas)
	}

	badPipe := pipeline.MustNew([]int64{10, 20}, []int64{5})
	badPipe.Stages[1].Work = -1
	checkColumns(t, newColumnEvaluator(cycles.BackendAuto, badPipe, plat), badPipe, plat, [][]int{{0}, {1}})
	badPlat := platform.Uniform(3, 10, 10)
	badPlat.Speeds[2] = 0
	checkColumns(t, newColumnEvaluator(cycles.BackendAuto, pipe, badPlat), pipe, badPlat, [][]int{{0}, {1}, {2}})

	// Replication counts 2, 3, 5, …, 53 (the primes to 53) have an lcm
	// past int64: FromMapped rejects the mapping after its link checks.
	primes := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
	work := make([]int64, len(primes))
	files := make([]int64, len(primes)-1)
	replicas := make([][]int, len(primes))
	next := 0
	for i, m := range primes {
		work[i] = 1
		if i < len(files) {
			files[i] = 1
		}
		for a := 0; a < m; a++ {
			replicas[i] = append(replicas[i], next)
			next++
		}
	}
	bigPipe := pipeline.MustNew(work, files)
	bigPlat := platform.Uniform(next, 1, 1)
	big := newColumnEvaluator(cycles.BackendAuto, bigPipe, bigPlat)
	checkColumns(t, big, bigPipe, bigPlat, replicas)
	if _, err := big.period(replicas); err == nil {
		t.Fatalf("lcm of %v accepted", primes)
	}
}
