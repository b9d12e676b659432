package workload

import (
	"math/rand"
	"reflect"
	"sync"
)

// math/rand's source (math/rand/rng.go) is an additive lagged-Fibonacci
// generator over rngLen words with tap rngTap. Seeding iterates seedrand,
// x_{j+1} = 48271·x_j mod lehmerM, and sets word i to
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i].
const rngLen, rngTap, lehmerM = 607, 273, 1<<31 - 1

var (
	lehmerPow [3 * rngLen]uint64 // 48271^(21+k) mod lehmerM
	cooked    [rngLen]int64      // rngCooked, read back from a seeded source
	lazyOK    bool               // cooked reproduces math/rand's stream
	seeded    = sync.Pool{New: func() any {
		if lazyOK {
			return rand.New(new(lazySource))
		}
		return rand.New(rand.NewSource(1))
	}}
)

func init() {
	for j, p := 1, uint64(1); j < 21+len(lehmerPow); j++ {
		if p = p * 48271 % lehmerM; j >= 21 {
			lehmerPow[j-21] = p
		}
	}
	var vec reflect.Value
	if v := reflect.Indirect(reflect.ValueOf(rand.NewSource(1))); v.Kind() == reflect.Struct {
		vec = v.FieldByName("vec")
	}
	if !vec.IsValid() || vec.Type() != reflect.TypeOf(cooked) {
		return
	}
	var s lazySource
	s.Seed(1)
	for i := range cooked {
		cooked[i] = vec.Index(i).Int() ^ s.mix(i)
	}
	// Past the wrap, on another seed: a changed generator is caught here.
	ref := rand.New(rand.NewSource(-12345))
	s.Seed(-12345)
	for k := 0; k < 2*rngLen; k++ {
		if s.Uint64() != ref.Uint64() {
			return
		}
	}
	lazyOK = true
}

// lazySource is math/rand's source with each word computed when a draw first
// reads it: seeding resets a counter instead of taking 1,841 Lehmer steps.
type lazySource struct {
	x0        uint64 // the seed as math/rand reduces it
	n         int    // draws since Seed, counted up to rngLen-rngTap
	tap, feed int
	vec       [rngLen]int64
}

func (s *lazySource) Seed(seed int64) {
	if seed = (seed%lehmerM + lehmerM) % lehmerM; seed == 0 {
		seed = 89482311
	}
	s.x0, s.n, s.tap, s.feed = uint64(seed), 0, 0, rngLen-rngTap
}

// mix is word i before the rngCooked XOR.
func (s *lazySource) mix(i int) (u int64) {
	for k := 3 * i; k < 3*i+3; k++ {
		p := lehmerPow[k] * s.x0 // below 2^62; two Mersenne folds reduce it
		p = p&lehmerM + p>>31
		u = u<<20 ^ int64(p&lehmerM+p>>31)
	}
	return u
}

func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	// Draw n (from 1) is the first to read word 607-n through tap for
	// n <= rngTap, and word 334-n through feed for n <= rngLen-rngTap; every
	// other read finds a word an earlier draw computed or wrote.
	if s.n < rngLen-rngTap {
		if s.n++; s.n <= rngTap {
			s.vec[s.tap] = s.mix(s.tap) ^ cooked[s.tap]
		}
		s.vec[s.feed] = s.mix(s.feed) ^ cooked[s.feed]
	}
	s.vec[s.feed] += s.vec[s.tap]
	return uint64(s.vec[s.feed])
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seeded returns a pooled generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)), without the cost of that seeding unless
// math/rand's internals differ from what this file reads.
func Seeded(seed int64) *rand.Rand {
	r := seeded.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Release returns a generator from Seeded to the pool after its last draw.
func Release(r *rand.Rand) { seeded.Put(r) }
