package rat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// checkAgainst fails unless got is the canonical representation of want:
// equal value, int64 form exactly when want's numerator and denominator fit
// int64 (IsBig parity), lowest terms with a positive denominator, and a
// String that Parse maps back to the same representation.
func checkAgainst(t *testing.T, op string, got Rat, want *big.Rat) {
	t.Helper()
	fits := want.Num().IsInt64() && want.Denom().IsInt64()
	if got.IsBig() == fits {
		t.Fatalf("%s: IsBig() = %v for %s", op, got.IsBig(), want.RatString())
	}
	if !got.IsBig() && (got.n != want.Num().Int64() || got.den() != want.Denom().Int64()) {
		t.Fatalf("%s = %d/%d, want %s", op, got.n, got.den(), want.RatString())
	}
	if got.view().Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", op, got.view().RatString(), want.RatString())
	}
	s := got.String()
	if s != want.RatString() {
		t.Fatalf("%s: String = %q, want %q", op, s, want.RatString())
	}
	back, err := Parse(s)
	if err != nil || back.IsBig() != got.IsBig() || back.String() != s {
		t.Fatalf("%s: Parse(%q) = %v, %v", op, s, back, err)
	}
}

// FuzzRatArith checks the kernel against math/big: Add, Sub, Mul, Div,
// Cmp, CmpFrac and FromFloat, in canonical form with IsBig parity, on the
// int64 operands, on a product that may have promoted, and mixed.
func FuzzRatArith(f *testing.F) {
	const p53 = 1 << 53
	seeds := [][4]int64{
		{math.MaxInt64, 1, math.MaxInt64, 1},
		{math.MinInt64, 1, math.MaxInt64, 3},
		{-math.MaxInt64, 7, math.MinInt64, math.MaxInt64},
		{p53 + 1, 3, p53 - 1, 5},
		{1 << 62, 9, -(1 << 62), 15},
		{1, 9973, 1, 9967},                                                       // coprime denominators
		{5, 1 << 40 * 3, 7, 1 << 40 * 5},                                         // shared factor 2^40
		{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2, math.MaxInt64 - 3}, // cross products overflow
		{47, 6, 55769913, 10291120},
		{0, 1, -3, 4},
	}
	floats := []float64{0, 1, -0.5, 7.833333333333333, 1e-300, 5e-324, 1 << 62, 1 << 63, -1e19, math.MaxFloat64, 0x1p-62, 0x1p-63, math.Inf(1), math.NaN()}
	for i, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], floats[i%len(floats)])
	}
	f.Fuzz(func(t *testing.T, n1, d1, n2, d2 int64, fl float64) {
		if d1 == 0 || d2 == 0 {
			return
		}
		a, b := New(n1, d1), New(n2, d2)
		checkAgainst(t, "New(a)", a, big.NewRat(n1, d1))
		checkAgainst(t, "New(b)", b, big.NewRat(n2, d2))
		ab := a.Mul(b) // may be big: exercises the mixed and big paths below
		pairs := []struct {
			name string
			x, y Rat
		}{{"a,b", a, b}, {"b,a", b, a}, {"ab,a", ab, a}, {"a,ab", a, ab}, {"a,a", a, a}}
		for _, p := range pairs {
			x, y := p.x, p.y
			bx, by := new(big.Rat).Set(x.view()), new(big.Rat).Set(y.view())
			checkAgainst(t, p.name+" Add", x.Add(y), new(big.Rat).Add(bx, by))
			checkAgainst(t, p.name+" Sub", x.Sub(y), new(big.Rat).Sub(bx, by))
			checkAgainst(t, p.name+" Mul", x.Mul(y), new(big.Rat).Mul(bx, by))
			if y.Sign() != 0 {
				checkAgainst(t, p.name+" Div", x.Div(y), new(big.Rat).Quo(bx, by))
			}
			checkAgainst(t, p.name+" Neg", x.Neg(), new(big.Rat).Neg(bx))
			if got, want := x.Cmp(y), bx.Cmp(by); got != want {
				t.Fatalf("%s Cmp = %d, want %d", p.name, got, want)
			}
		}
		if d1 > 0 && d2 > 0 {
			den := new(big.Int).Mul(big.NewInt(d1), big.NewInt(d2))
			fr := new(big.Rat).SetFrac(big.NewInt(n2), den)
			for _, x := range []Rat{a, b, ab} {
				if got, want := x.CmpFrac(n2, d1, d2), x.view().Cmp(fr); got != want {
					t.Fatalf("%v.CmpFrac(%d, %d, %d) = %d, want %d", x, n2, d1, d2, got, want)
				}
			}
		}
		got, ok := FromFloat(fl)
		want := new(big.Rat).SetFloat64(fl)
		if ok != (want != nil) {
			t.Fatalf("FromFloat(%v) ok = %v", fl, ok)
		}
		if ok {
			checkAgainst(t, "FromFloat", got, want)
		}
	})
}

// TestKernelAllocFree pins the int64 fast path: operations on int64 values
// whose results fit allocate nothing, including operands whose naive
// cross products overflow 64 bits.
func TestKernelAllocFree(t *testing.T) {
	x := New(math.MaxInt64, math.MaxInt64-1) // cross products with y: ~2^126
	y := New(math.MaxInt64-2, math.MaxInt64-3)
	h1, h2 := New(1<<50+1, 1<<52), New(1<<50-1, 1<<52) // sum 1/2, naive cross products 2^102
	c1, c2 := New(22, 7), New(355, 113)                // coprime denominators
	m1, m2 := New(1<<40, 3), New(9, 1<<40)             // product 3 after cross-reduction
	var sink Rat
	var isink int
	cases := []struct {
		name string
		fn   func()
	}{
		{"Cmp/overflowing-cross-products", func() { isink = x.Cmp(y) }},
		{"Cmp/small", func() { isink = c1.Cmp(c2) }},
		{"CmpFrac/overflowing", func() { isink = x.CmpFrac(math.MaxInt64, math.MaxInt64, 3) }},
		{"Add/shared-denominator", func() { sink = h1.Add(h2) }},
		{"Add/coprime", func() { sink = c1.Add(c2) }},
		{"Sub/shared-denominator", func() { sink = h1.Sub(h2) }},
		{"Mul/cross-reduced", func() { sink = m1.Mul(m2) }},
		{"Mul/small", func() { sink = c1.Mul(c2) }},
		{"Div/small", func() { sink = c1.Div(c2) }},
		{"FromFloat/dyadic", func() { sink, _ = FromFloat(7.833333333333333) }},
		{"FromFloat/integer", func() { sink, _ = FromFloat(1 << 60) }},
		{"New", func() { sink = New(-1<<60, 3<<20) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	if got := h1.Add(h2); !got.Equal(New(1, 2)) || got.IsBig() {
		t.Errorf("shared-denominator sum = %v", got)
	}
	if got := m1.Mul(m2); !got.Equal(FromInt(3)) {
		t.Errorf("cross-reduced product = %v", got)
	}
	_, _ = sink, isink
}

// TestAppendTo checks AppendTo against String on both representations and
// that appending to a buffer with room does not allocate.
func TestAppendTo(t *testing.T) {
	bigv := FromInt(math.MaxInt64).Mul(FromInt(math.MaxInt64)).Add(New(1, 3))
	for _, r := range []Rat{Zero(), New(-7, 3), FromInt(math.MinInt64), bigv, bigv.Neg().Sub(New(2, 3))} {
		if got := string(r.AppendTo([]byte("k="))); got != "k="+r.String() {
			t.Errorf("AppendTo = %q, want %q", got, "k="+r.String())
		}
	}
	buf := make([]byte, 0, 64)
	v := New(-55769913, 10291120)
	if n := testing.AllocsPerRun(100, func() { buf = v.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo: %v allocs/op, want 0", n)
	}
}

// TestFloat64ErrorBound checks the documented conversion guarantee against
// math/big: the nearest float64 when |n|, d <= 2^53, and within relative
// 3u(1+8u) of the exact value otherwise.
func TestFloat64ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bound := new(big.Rat).SetFloat64(3 * 0x1p-53 * (1 + 0x1p-50))
	for i := 0; i < 20000; i++ {
		var n, d int64
		switch i % 3 {
		case 0: // both exactly representable
			n, d = rng.Int63n(1<<53)+1, rng.Int63n(1<<53)+1
		case 1:
			n, d = rng.Int63(), rng.Int63()+1
		default:
			n, d = rng.Int63()>>uint(rng.Intn(40)), rng.Int63()>>uint(rng.Intn(40))+1
		}
		if i%2 == 1 {
			n = -n
		}
		r := New(n, d)
		exact := big.NewRat(n, d)
		f := r.Float64()
		if r.Num() <= 1<<53 && r.Num() >= -(1<<53) && r.Den() <= 1<<53 {
			if nearest, _ := exact.Float64(); f != nearest {
				t.Fatalf("%v: Float64 = %v, nearest is %v", r, f, nearest)
			}
			continue
		}
		diff := new(big.Rat).Sub(new(big.Rat).SetFloat64(f), exact)
		lim := new(big.Rat).Mul(bound, new(big.Rat).Abs(exact))
		if diff.Abs(diff).Cmp(lim) > 0 {
			t.Fatalf("%v: Float64 = %v, error %s exceeds 3u(1+8u)|x|", r, f, diff.FloatString(30))
		}
	}
}
