// Package rat implements exact rational arithmetic.
//
// Every period computation in this repository is carried out exactly: the
// paper's central experimental question is whether the steady-state period P
// strictly exceeds the maximum resource cycle-time Mct, and floating point
// noise would corrupt that strict comparison.
//
// Values are kept in lowest terms with an int64 numerator and denominator
// whenever both fit (input quantities are small integers, so this covers
// almost all arithmetic), and in a math/big.Rat otherwise — long
// Karp/Bellman accumulations over mapped platforms can produce denominators
// exceeding int64.
//
// When a value promotes: an operation returns the big representation
// exactly when its reduced result has a numerator outside int64 or a
// denominator above math.MaxInt64. Intermediate products and sums are
// formed in 128 bits (math/bits), so an overflowing cross product alone
// never promotes, and an int64 operation whose result fits never divides
// to detect overflow and never touches math/big. A big result that fits
// int64 again is demoted. The representation is therefore a function of
// the value alone: String, Equal and IsBig agree on every path that
// computes it.
package rat

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0, ready to use.
// Rats are immutable values; all operations return new Rats.
type Rat struct {
	n, d int64    // numerator/denominator in lowest terms, d > 0; used when b == nil
	b    *big.Rat // arbitrary-precision fallback (never mutated once set)
}

// Zero returns the rational 0.
func Zero() Rat { return Rat{0, 1, nil} }

// One returns the rational 1.
func One() Rat { return Rat{1, 1, nil} }

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1, nil} }

// FromFloat returns the exact rational value of f. Every finite float64 is a
// dyadic rational, so the conversion is lossless — no rounding happens here.
// ok is false for NaN and the infinities, which have no rational value.
func FromFloat(f float64) (Rat, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Rat{}, false
	}
	if f == 0 {
		return Rat{0, 1, nil}, true
	}
	// f = frac·2^exp with 1/2 <= |frac| < 1, so mant = frac·2^53 is an exact
	// integer and f = mant·2^exp once exp is rebased; stripping mant's
	// trailing zeros leaves it odd, i.e. coprime to any power of two.
	frac, exp := math.Frexp(f)
	mant := int64(frac * (1 << 53))
	tz := bits.TrailingZeros64(uint64(mant))
	mant >>= tz
	exp += tz - 53
	switch {
	case exp < 0 && exp > -63:
		return Rat{mant, 1 << -exp, nil}, true
	case exp >= 0 && bits.Len64(uabs(mant))+exp < 64:
		return Rat{mant << exp, 1, nil}, true
	}
	return fromBig(new(big.Rat).SetFloat64(f)), true
}

// Parse converts the String form back into a Rat. It accepts exactly
// [+-]?[0-9]+(/[0-9]+)?: an optionally signed decimal numerator and a
// positive decimal denominator, at any magnitude (values beyond int64 land
// on the big-rational representation, so Parse∘String is the identity).
// Decimal points, exponents, base prefixes and underscores are refused: the
// wire protocol uses Parse to carry exact periods — subtree results and
// checkpoints round-trip through JSON strings without losing exactness —
// and a grammar wider than String's output would let a peer or a file
// spell one value many ways, or a huge one in a few bytes ("1e100000").
func Parse(s string) (Rat, error) {
	num, den, frac := strings.Cut(s, "/")
	if !frac {
		den = "1"
	}
	// Values that fit int64 parse without math/big: strconv's base-10
	// grammar is big.Int's (an optional sign, then digits), and larger
	// values, syntax errors and zero denominators take the path below.
	if den != "" && den[0] >= '0' && den[0] <= '9' {
		n, errN := strconv.ParseInt(num, 10, 64)
		d, errD := strconv.ParseInt(den, 10, 64)
		if errN == nil && errD == nil && d != 0 {
			return New(n, d), nil
		}
	}
	// Base 10 admits an optional sign and digits only; the denominator's
	// sign is refused separately.
	n, okN := new(big.Int).SetString(num, 10)
	d, okD := new(big.Int).SetString(den, 10)
	if !okN || !okD || den[0] < '0' || den[0] > '9' {
		return Rat{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	if d.Sign() == 0 {
		return Rat{}, fmt.Errorf("rat: zero denominator in %q", s)
	}
	return fromBig(new(big.Rat).SetFrac(n, d)), nil
}

// New returns the rational n/d in lowest terms. It panics if d == 0.
func New(n, d int64) Rat {
	if d == 0 {
		panic("rat: zero denominator")
	}
	un, ud := uabs(n), uabs(d)
	if g := gcd(un, ud); g > 1 {
		un, ud = un/g, ud/g
	}
	return fromParts((n < 0) != (d < 0), un, ud)
}

// fromParts returns ±n/d for n/d already in lowest terms (d > 0), in the
// int64 representation when it fits.
func fromParts(neg bool, n, d uint64) Rat {
	if n == 0 {
		return Rat{0, 1, nil}
	}
	if d <= math.MaxInt64 {
		if !neg && n <= math.MaxInt64 {
			return Rat{int64(n), int64(d), nil}
		}
		if neg && n <= 1<<63 {
			return Rat{-int64(n), int64(d), nil} // n == 1<<63 wraps to MinInt64
		}
	}
	x := new(big.Rat).SetFrac(new(big.Int).SetUint64(n), new(big.Int).SetUint64(d))
	if neg {
		x.Neg(x)
	}
	return Rat{b: x}
}

// fromParts128 is fromParts for 128-bit magnitudes nh:nl and dh:dl.
func fromParts128(neg bool, nh, nl, dh, dl uint64) Rat {
	if nh == 0 && dh == 0 {
		return fromParts(neg, nl, dl)
	}
	x := new(big.Rat).SetFrac(bigU128(nh, nl), bigU128(dh, dl))
	if neg {
		x.Neg(x)
	}
	return Rat{b: x}
}

func bigU128(hi, lo uint64) *big.Int {
	x := new(big.Int).SetUint64(hi)
	return x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(lo))
}

// fromBig wraps a big.Rat, demoting to the int64 representation when it
// fits (keeps the fast path hot and String/Equal canonical).
func fromBig(x *big.Rat) Rat {
	if x.Num().IsInt64() && x.Denom().IsInt64() {
		return Rat{x.Num().Int64(), x.Denom().Int64(), nil}
	}
	return Rat{b: x}
}

// view returns the value as a big.Rat for reading only: r's own big value
// when it has one (which must never be mutated), else a fresh conversion.
func (r Rat) view() *big.Rat {
	if r.b != nil {
		return r.b
	}
	return new(big.Rat).SetFrac64(r.n, r.den())
}

func (r Rat) den() int64 {
	if r.d == 0 {
		return 1 // zero value normalization
	}
	return r.d
}

// IsBig reports whether the value is carried by the arbitrary-precision
// representation (exposed for tests and benchmarks).
func (r Rat) IsBig() bool { return r.b != nil }

// Small returns the numerator and the positive denominator of the int64
// representation, in lowest terms; ok is false for a big value. Unlike
// Num and Den it never panics, and it inlines into loops over many values.
func (r Rat) Small() (n, d int64, ok bool) { return r.n, r.den(), r.b == nil }

// Num returns the numerator. It panics if the value does not fit int64
// (callers only use it on small inputs such as figure labels).
func (r Rat) Num() int64 {
	if r.b != nil {
		if !r.b.Num().IsInt64() {
			panic("rat: Num does not fit int64")
		}
		return r.b.Num().Int64()
	}
	return r.n
}

// Den returns the positive denominator, with the same caveat as Num.
func (r Rat) Den() int64 {
	if r.b != nil {
		if !r.b.Denom().IsInt64() {
			panic("rat: Den does not fit int64")
		}
		return r.b.Denom().Int64()
	}
	return r.den()
}

// Add returns r + s.
//
// The int64 path is Knuth's (TAOCP 4.5.1): with g = gcd(d1, d2), coprime
// denominators (g = 1) give a sum already in lowest terms, and otherwise
// t = n1·(d2/g) + n2·(d1/g) only shares the factor gcd(t, g) with the
// denominator. t and the products are formed in 128 bits, so the sum
// promotes to big only when its reduced value does not fit int64.
func (r Rat) Add(s Rat) Rat {
	if r.b != nil || s.b != nil {
		return fromBig(new(big.Rat).Add(r.view(), s.view()))
	}
	d1, d2 := uint64(r.den()), uint64(s.den())
	if d1 == 1 && d2 == 1 {
		if v, ok := add64(r.n, s.n); ok {
			return Rat{v, 1, nil}
		}
	}
	g := gcd(d1, d2)
	e1, e2 := d1/g, d2/g
	p1n, p1h, p1l := smul(r.n, e2)
	p2n, p2h, p2l := smul(s.n, e1)
	neg, th, tl := sadd(p1n, p1h, p1l, p2n, p2h, p2l)
	if g == 1 {
		dh, dl := bits.Mul64(d1, d2)
		return fromParts128(neg, th, tl, dh, dl)
	}
	var rem uint64
	if th == 0 {
		rem = tl % g
	} else {
		rem = bits.Rem64(th, tl, g)
	}
	g2 := gcd(rem, g)
	if g2 > 1 {
		qh := th / g2
		tl, _ = bits.Div64(th%g2, tl, g2)
		th = qh
	}
	dh, dl := bits.Mul64(e1, d2/g2)
	return fromParts128(neg, th, tl, dh, dl)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat {
	if r.b == nil && r.n != math.MinInt64 {
		return Rat{-r.n, r.den(), nil}
	}
	return fromBig(new(big.Rat).Neg(r.view()))
}

// Mul returns r * s. Operands are cross-reduced first, so the 128-bit
// products are already in lowest terms.
func (r Rat) Mul(s Rat) Rat {
	if r.b != nil || s.b != nil {
		return fromBig(new(big.Rat).Mul(r.view(), s.view()))
	}
	n1, d1 := uabs(r.n), uint64(r.den())
	n2, d2 := uabs(s.n), uint64(s.den())
	if g := gcd(n1, d2); g > 1 {
		n1, d2 = n1/g, d2/g
	}
	if g := gcd(n2, d1); g > 1 {
		n2, d1 = n2/g, d1/g
	}
	nh, nl := bits.Mul64(n1, n2)
	dh, dl := bits.Mul64(d1, d2)
	return fromParts128((r.n < 0) != (s.n < 0), nh, nl, dh, dl)
}

// Div returns r / s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	if s.IsZero() {
		panic("rat: division by zero")
	}
	if s.b == nil && s.n != math.MinInt64 {
		if s.n < 0 {
			return r.Mul(Rat{-s.den(), -s.n, nil})
		}
		return r.Mul(Rat{s.den(), s.n, nil})
	}
	return fromBig(new(big.Rat).Quo(r.view(), s.view()))
}

// MulInt returns r * k.
func (r Rat) MulInt(k int64) Rat { return r.Mul(FromInt(k)) }

// DivInt returns r / k. It panics if k == 0.
func (r Rat) DivInt(k int64) Rat { return r.Div(FromInt(k)) }

// Cmp compares r and s and returns -1, 0, or +1. Two int64 values compare
// by 128-bit cross products, exactly and without allocating.
func (r Rat) Cmp(s Rat) int {
	if r.b != nil || s.b != nil {
		return r.view().Cmp(s.view())
	}
	rs, ss := cmp.Compare(r.n, 0), cmp.Compare(s.n, 0)
	if rs != ss || rs == 0 {
		return cmp.Compare(rs, ss)
	}
	h1, l1 := bits.Mul64(uabs(r.n), uint64(s.den()))
	h2, l2 := bits.Mul64(uabs(s.n), uint64(r.den()))
	return rs * cmp128(h1, l1, h2, l2)
}

// CmpFrac compares r with the fraction num/(den1·den2) and returns -1, 0,
// or +1. den1 and den2 must be positive; the fraction need not be in
// lowest terms and den1·den2 may exceed int64. When r is int64 the
// comparison is exact in 192-bit integer arithmetic and never allocates,
// which lets a caller test a bound of that shape without forming a Rat.
func (r Rat) CmpFrac(num, den1, den2 int64) int {
	if den1 <= 0 || den2 <= 0 {
		panic("rat: CmpFrac with non-positive denominator")
	}
	if r.b != nil {
		d := new(big.Int).Mul(big.NewInt(den1), big.NewInt(den2))
		return r.b.Cmp(new(big.Rat).SetFrac(big.NewInt(num), d))
	}
	rs, fs := cmp.Compare(r.n, 0), cmp.Compare(num, 0)
	if rs != fs || rs == 0 {
		return cmp.Compare(rs, fs)
	}
	// |r.n|·den1·den2 as x2:x1:x0 against |num|·r.d as y1:y0.
	h, l := bits.Mul64(uabs(r.n), uint64(den1))
	c, x0 := bits.Mul64(l, uint64(den2))
	x2, t := bits.Mul64(h, uint64(den2))
	x1, carry := bits.Add64(t, c, 0)
	x2 += carry
	if x2 != 0 {
		return rs
	}
	y1, y0 := bits.Mul64(uabs(num), uint64(r.den()))
	return rs * cmp128(x1, x0, y1, y0)
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	if r.b != nil {
		return r.b.Sign()
	}
	switch {
	case r.n < 0:
		return -1
	case r.n > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Sign() == 0 }

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Sum returns the sum of all arguments.
func Sum(rs ...Rat) Rat {
	total := Zero()
	for _, r := range rs {
		total = total.Add(r)
	}
	return total
}

// MaxOf returns the maximum of a non-empty slice. It panics on empty input.
func MaxOf(rs []Rat) Rat {
	if len(rs) == 0 {
		panic("rat: MaxOf of empty slice")
	}
	m := rs[0]
	for _, r := range rs[1:] {
		m = Max(m, r)
	}
	return m
}

// Floor returns ⌊r⌋ as an int64, saturating at math.MinInt64/MaxInt64 when
// the floor lies outside the int64 range. Unlike Num/Den it is safe on
// values carried by the big-rational representation — renderers that map
// exact times to screen cells (package gantt) clamp afterwards anyway, so
// saturation is the right behavior for out-of-range values.
func (r Rat) Floor() int64 {
	if r.b == nil {
		d := r.den()
		f := r.n / d
		if r.n < 0 && r.n%d != 0 {
			f--
		}
		return f
	}
	// big.Int.Div is Euclidean division; with the always-positive
	// denominator that is exactly the floor.
	q := new(big.Int).Div(r.b.Num(), r.b.Denom())
	if !q.IsInt64() {
		if q.Sign() < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return q.Int64()
}

// Float64 returns a float64 approximation of r. It is the nearest float64
// when r is big (math/big rounds once) or when |n| and d are both at most
// 2^53 (both convert exactly and the quotient rounds once). Beyond that the
// int64 path rounds three times — n, d and the quotient — so the result is
// within a relative 3u + O(u²) of r, u = 2^-53 the unit roundoff, but not
// necessarily the nearest float64 (package cycles bounds conversion error
// by 4u|f| on that guarantee). An int64 value never underflows: |r| is 0
// or at least 2^-63.
func (r Rat) Float64() float64 {
	if r.b != nil {
		f, _ := r.b.Float64()
		return f
	}
	return float64(r.n) / float64(r.den())
}

// String renders r as "n/d", or just "n" when the denominator is 1.
func (r Rat) String() string {
	if r.b == nil && r.den() == 1 {
		return strconv.FormatInt(r.n, 10)
	}
	var buf [48]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String form of r to dst and returns the extended
// slice. It does not allocate when r is int64 and dst has room, so callers
// that serialize many values (cache keys) can reuse one buffer.
func (r Rat) AppendTo(dst []byte) []byte {
	if r.b != nil {
		dst = r.b.Num().Append(dst, 10)
		if r.b.IsInt() {
			return dst
		}
		return r.b.Denom().Append(append(dst, '/'), 10)
	}
	dst = strconv.AppendInt(dst, r.n, 10)
	if d := r.den(); d != 1 {
		dst = strconv.AppendInt(append(dst, '/'), d, 10)
	}
	return dst
}

// uabs returns |x| as a uint64 (exact for math.MinInt64 too).
func uabs(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// cmp128 compares the unsigned 128-bit integers xh:xl and yh:yl.
func cmp128(xh, xl, yh, yl uint64) int {
	switch {
	case xh < yh || (xh == yh && xl < yl):
		return -1
	case xh > yh || xl > yl:
		return 1
	}
	return 0
}

// smul returns the 128-bit product a·b (b > 0) in sign-magnitude form.
func smul(a int64, b uint64) (neg bool, hi, lo uint64) {
	hi, lo = bits.Mul64(uabs(a), b)
	return a < 0, hi, lo
}

// sadd returns x + y for sign-magnitude 128-bit integers whose magnitudes
// are below 2^127, so the sum cannot overflow.
func sadd(xn bool, xh, xl uint64, yn bool, yh, yl uint64) (neg bool, hi, lo uint64) {
	if xn == yn {
		lo, c := bits.Add64(xl, yl, 0)
		hi, _ = bits.Add64(xh, yh, c)
		return xn, hi, lo
	}
	if cmp128(xh, xl, yh, yl) < 0 {
		xn, xh, xl, yh, yl = yn, yh, yl, xh, xl
	}
	lo, b := bits.Sub64(xl, yl, 0)
	hi, _ = bits.Sub64(xh, yh, b)
	return xn, hi, lo
}

// gcd returns the greatest common divisor of a and b (gcd(a, 0) == a) by
// the binary algorithm: shifts, subtractions and conditional moves, no
// hardware divide.
func gcd(a, b uint64) uint64 {
	if a <= 1 || b <= 1 {
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
		return 1
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		lo, hi := min(a, b), max(a, b)
		a, b = lo, hi-lo
	}
	return a << shift
}

// gcd64 returns the greatest common divisor of non-negative a, b
// (gcd(0,0) == 1 so that it is always a safe divisor).
func gcd64(a, b int64) int64 {
	if g := gcd(uint64(a), uint64(b)); g != 0 {
		return int64(g)
	}
	return 1
}

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a*b and whether it did not overflow, from the 128-bit
// product.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs(a), uabs(b))
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), lo <= 1<<63
	}
	return int64(lo), lo <= math.MaxInt64
}

// GCDInt returns gcd(a, b) for non-negative integers, used by callers that
// need the same gcd the rational code uses (e.g. pattern decomposition).
func GCDInt(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("rat: GCDInt of negative value")
	}
	return gcd64(a, b)
}

// LCMInt returns lcm(a, b) for positive integers. It panics on overflow
// (callers guard path-count explosions explicitly).
func LCMInt(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		panic("rat: LCMInt of non-positive value")
	}
	v, ok := mul64(a/gcd64(a, b), b)
	if !ok {
		panic("rat: int64 overflow in lcm")
	}
	return v
}

// LCMAll returns the least common multiple of a non-empty list of positive
// integers.
func LCMAll(xs []int64) int64 {
	if len(xs) == 0 {
		panic("rat: LCMAll of empty slice")
	}
	l := int64(1)
	for _, x := range xs {
		l = LCMInt(l, x)
	}
	return l
}

// LCMAllChecked is LCMAll for untrusted input: instead of panicking it
// reports ok=false when the list is empty, holds a non-positive value, or
// the least common multiple overflows int64.
func LCMAllChecked(xs []int64) (int64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	l := int64(1)
	for _, x := range xs {
		if x <= 0 {
			return 0, false
		}
		v, ok := mul64(l/gcd64(l, x), x)
		if !ok {
			return 0, false
		}
		l = v
	}
	return l, true
}
