package rat

import (
	"math"
	"math/big"
	"regexp"
	"strings"
	"testing"
)

func TestParseRoundTripsString(t *testing.T) {
	cases := []Rat{
		Zero(),
		One(),
		New(-7, 3),
		New(22, 7),
		FromInt(math.MaxInt64),
		New(math.MaxInt64, math.MaxInt64-1),
		// Past int64: force the big representation through arithmetic.
		FromInt(math.MaxInt64).Mul(FromInt(math.MaxInt64)).Add(New(1, 3)),
		FromInt(math.MaxInt64).Mul(FromInt(math.MaxInt64)).Neg().Sub(New(5, 7)),
	}
	for _, r := range cases {
		s := r.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !back.Equal(r) {
			t.Fatalf("Parse(%q) = %v, want %v", s, back, r)
		}
		if back.String() != s {
			t.Fatalf("Parse(%q).String() = %q, round trip not canonical", s, back.String())
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "x", "1/", "/2", "1//2", "one half", "1/0",
		// Outside the grammar, though big.Rat.SetString takes them.
		"0.5", "1e3", "1E3", "0x10", "0b1", "0o7", "1_000", "+-1", "--1", "1/-2", "1/+2", " 1", "1 ", "+", "-", "1/2/3", "1/0x2", "inf"} {
		if v, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) accepted as %v", s, v)
		}
	}
}

// FuzzRatParse: Parse accepts only [+-]?[0-9]+(/[0-9]+)? with a non-zero
// denominator, and then yields the value of that decimal fraction; an
// accepted input round-trips through String, and String is canonical (the
// lowest-terms form, parsed back to itself).
func FuzzRatParse(f *testing.F) {
	// "010/3" and "4/010" are decimal, never octal.
	for _, s := range []string{"0", "-0", "-7/3", "22/7", "+007", "010/3", "4/010", "4/8", "1/0", "0.5", "1e3", "0x10", "1_0",
		"9223372036854775807/9223372036854775806", "-170141183460469231731687303715884105727/3"} {
		f.Add(s)
	}
	grammar := regexp.MustCompile(`^[+-]?[0-9]+(/[0-9]+)?$`)
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if !grammar.MatchString(s) {
			if err == nil {
				t.Fatalf("Parse(%q) accepted input outside the grammar as %v", s, r)
			}
			return
		}
		num, den, frac := strings.Cut(s, "/")
		if !frac {
			den = "1"
		}
		n, _ := new(big.Int).SetString(num, 10)
		d, _ := new(big.Int).SetString(den, 10)
		if d.Sign() == 0 {
			if err == nil {
				t.Fatalf("Parse(%q) accepted a zero denominator as %v", s, r)
			}
			return
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		want := new(big.Rat).SetFrac(n, d)
		if r.view().Cmp(want) != 0 {
			t.Fatalf("Parse(%q) = %v, want %v", s, r, want.RatString())
		}
		str := r.String()
		if str != want.RatString() {
			t.Fatalf("Parse(%q).String() = %q, not the lowest-terms form %q", s, str, want.RatString())
		}
		back, err := Parse(str)
		if err != nil || !back.Equal(r) || back.String() != str || back.IsBig() != r.IsBig() {
			t.Fatalf("Parse(%q) = %v, %v: String %q does not round-trip", s, back, err, str)
		}
	})
}
