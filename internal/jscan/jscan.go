// Package jscan reads the subset of JSON that json.Marshal writes for the
// service's requests: objects, arrays, escape-free ASCII strings, plain
// non-negative integers and exact rationals "n" or "n/d" in strings. Its
// callers fall back to encoding/json on anything it declines, so a Scanner
// reports only whether the input matched, never why not.
package jscan

// maxDigits bounds every integer read: 18 digits always fit int64.
const maxDigits = 18

// Scanner reads one byte slice from the front.
type Scanner struct {
	b []byte
	i int
}

// New returns a Scanner positioned at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Punct skips whitespace and consumes c if it comes next.
func (s *Scanner) Punct(c byte) bool {
	s.space()
	return s.is(c)
}

// is consumes c if it comes next.
func (s *Scanner) is(c byte) bool {
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.space()
	return s.i == len(s.b)
}

// Str skips whitespace and reads a string of printable ASCII without
// escapes. The returned contents alias the input.
func (s *Scanner) Str() ([]byte, bool) {
	if !s.Punct('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] < 0x7f && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	end := s.i
	return s.b[start:end], s.is('"')
}

// digits reads 1 to maxDigits decimal digits.
func (s *Scanner) digits() (int64, bool) {
	var v int64
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		if s.i-start == maxDigits {
			return 0, false
		}
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	return v, s.i > start
}

// Uint skips whitespace and reads a JSON number that is a plain
// non-negative integer: no sign, fraction, exponent or leading zero.
func (s *Scanner) Uint() (int64, bool) {
	s.space()
	start := s.i
	v, ok := s.digits()
	return v, ok && (s.b[start] != '0' || s.i-start == 1)
}

// Ratio skips whitespace and reads a string "n" or "n/d" of plain decimal
// digits with d ≠ 0, returning n and d (1 when absent) unreduced.
func (s *Scanner) Ratio() (n, d int64, ok bool) {
	if !s.Punct('"') {
		return 0, 0, false
	}
	n, ok = s.digits()
	d = 1
	if ok && s.is('/') {
		d, ok = s.digits()
	}
	return n, d, ok && d != 0 && s.is('"')
}

// Array reads a JSON array, calling elem with each index to read it.
func (s *Scanner) Array(elem func(k int) bool) bool { return s.seq('[', ']', elem) }

// Object reads a JSON object, calling field with each key (aliasing the
// input) to read its value.
func (s *Scanner) Object(field func(key []byte) bool) bool {
	return s.seq('{', '}', func(int) bool {
		key, ok := s.Str()
		return ok && s.Punct(':') && field(key)
	})
}

func (s *Scanner) seq(lb, rb byte, elem func(k int) bool) bool {
	if !s.Punct(lb) {
		return false
	}
	for k := 0; !s.Punct(rb); k++ {
		if k > 0 && !s.Punct(',') || !elem(k) {
			return false
		}
	}
	return true
}
