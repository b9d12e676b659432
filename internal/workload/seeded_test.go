package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeededFastPath fails when this toolchain's math/rand no longer exposes
// the state Seeded reads: the stream stays right, the seeding saving is lost.
func TestSeededFastPath(t *testing.T) {
	if !lazyOK {
		t.Fatal("math/rand's rngSource layout or stream changed: Seeded fell back to rand.NewSource")
	}
}

// TestSeededMatchesMathRand draws a mix of Int63, Uint64, Intn, Int63n,
// Float64 and Perm, past the 607-word wrap, from math/rand, from a fresh lazy
// source and from a pooled, reseeded one, and requires the three streams to
// be bit-identical. Every other rand.Rand method reads the source through
// Int63 or Uint64.
func TestSeededMatchesMathRand(t *testing.T) {
	const m = lehmerM
	seeds := []int64{0, 1, -1, 2, m, -m, m - 1, m + 1, 2 * m, -3 * m, 1000 * m, 89482311, -89482311,
		89482311 + m, 1 << 31, 1 << 40, 1<<40 + 7, -(1 << 41), 1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	meta := rand.New(rand.NewSource(99))
	for len(seeds) < 3000 {
		seeds = append(seeds, int64(len(seeds)), meta.Int63()>>uint(meta.Intn(63))*int64(1-2*meta.Intn(2)))
	}
	const draws = 1300
	for _, seed := range seeds {
		ref, pooled := rand.New(rand.NewSource(seed)), Seeded(seed)
		// Without the fast path TestSeededFastPath fails, and only Seeded's
		// fallback to math/rand is left to check here.
		rngs := []*rand.Rand{pooled}
		if lazyOK {
			rngs = append(rngs, rand.New(new(lazySource)))
			rngs[1].Seed(seed)
		}
		for k := 0; k < draws; k++ {
			want := drawKind(ref, k)
			for i, r := range rngs {
				if got := drawKind(r, k); got != want {
					t.Fatalf("seed %d draw %d: %s gave %d, math/rand %d", seed, k, []string{"pooled Seeded", "fresh lazy source"}[i], got, want)
				}
			}
		}
		Release(pooled)
	}
}

// drawKind makes the k-th draw of a fixed mix of methods and folds its result
// into one comparable value.
func drawKind(r *rand.Rand, k int) uint64 {
	switch k % 6 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(1 + k))
	case 3:
		return uint64(r.Int63n(int64(k)<<33 + 1))
	case 4:
		return math.Float64bits(r.Float64())
	}
	h := uint64(0)
	for _, v := range r.Perm(5) {
		h = h*7 + uint64(v)
	}
	return h
}

var sinkInstance any

// BenchmarkInstanceSeeded draws one Table 2 instance per op with a fresh
// seed, as exper.RunEngine does, seeding math/rand directly and through
// Seeded: the (2,7) spec draws a few dozen numbers, the (10,30) spec hundreds.
func BenchmarkInstanceSeeded(b *testing.B) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"2x7", Spec{Stages: 2, Procs: 7, CompLo: 1, CompHi: 1, CommLo: 10, CommHi: 50, MaxPathCount: 2520}},
		{"10x30", Spec{Stages: 10, Procs: 30, CompLo: 5, CompHi: 15, CommLo: 5, CommHi: 15, MaxPathCount: 2520}},
	}
	for _, sc := range specs {
		sp := sc.spec
		b.Run(sc.name+"/mathrand", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := sp.Instance(rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				sinkInstance = inst
			}
		})
		b.Run(sc.name+"/seeded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := Seeded(int64(i))
				inst, err := sp.Instance(rng)
				Release(rng)
				if err != nil {
					b.Fatal(err)
				}
				sinkInstance = inst
			}
		})
	}
}
