package rat

import (
	"math"
	"math/big"
	"testing"
)

var (
	benchRat Rat
	benchBig *big.Rat
	benchCmp int
)

func benchPair(n1, d1, n2, d2 int64) (Rat, Rat, *big.Rat, *big.Rat) {
	return New(n1, d1), New(n2, d2), big.NewRat(n1, d1), big.NewRat(n2, d2)
}

// BenchmarkRat compares the int64 kernel with math/big on the same
// operands: "int64" is this package's fast path, "big" the math/big
// operation the fallback performs. "fallback" forces a promotion: the
// int64 operands' sum does not fit, so the result is built in math/big.
func BenchmarkRat(b *testing.B) {
	cases := []struct {
		name           string
		n1, d1, n2, d2 int64
		op             func(x, y Rat) Rat
		bop            func(z, x, y *big.Rat) *big.Rat
	}{
		{"Add/coprime", 1295, 6, 355, 113, Rat.Add, (*big.Rat).Add},
		{"Add/shared", 1295, 6, 7, 12, Rat.Add, (*big.Rat).Add},
		{"Mul", 1295, 6, 355, 113, Rat.Mul, (*big.Rat).Mul},
		{"fallback", 1, math.MaxInt64 - 1, 1, math.MaxInt64 - 2, Rat.Add, (*big.Rat).Add},
	}
	for _, c := range cases {
		x, y, bx, by := benchPair(c.n1, c.d1, c.n2, c.d2)
		b.Run(c.name+"/int64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRat = c.op(x, y)
			}
		})
		b.Run(c.name+"/big", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchBig = c.bop(new(big.Rat), bx, by)
			}
		})
	}
	// Cross products near 2^126: the int64 path compares in 128 bits.
	x, y, bx, by := benchPair(math.MaxInt64, math.MaxInt64-1, math.MaxInt64-2, math.MaxInt64-3)
	b.Run("Cmp/near-overflow/int64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCmp = x.Cmp(y)
		}
	})
	b.Run("Cmp/near-overflow/big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCmp = bx.Cmp(by)
		}
	})
	const f = 7.833333333333333
	b.Run("FromFloat/int64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRat, _ = FromFloat(f)
		}
	})
	b.Run("FromFloat/big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBig = new(big.Rat).SetFloat64(f)
		}
	})
}
