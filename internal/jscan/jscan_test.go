package jscan

import "testing"

func TestTokens(t *testing.T) {
	for _, c := range []struct {
		in   string
		read func(s *Scanner) bool
		want bool
	}{
		{` "abc" `, func(s *Scanner) bool { b, ok := s.Str(); return ok && string(b) == "abc" }, true},
		{`"a\"b"`, func(s *Scanner) bool { _, ok := s.Str(); return ok }, false},
		{"\"a\tb\"", func(s *Scanner) bool { _, ok := s.Str(); return ok }, false},
		{"\"caf\xc3\xa9\"", func(s *Scanner) bool { _, ok := s.Str(); return ok }, false},
		{`"abc`, func(s *Scanner) bool { _, ok := s.Str(); return ok }, false},
		{` 0`, func(s *Scanner) bool { v, ok := s.Uint(); return ok && v == 0 }, true},
		{`120`, func(s *Scanner) bool { v, ok := s.Uint(); return ok && v == 120 }, true},
		{`012`, func(s *Scanner) bool { _, ok := s.Uint(); return ok }, false},
		{`-1`, func(s *Scanner) bool { _, ok := s.Uint(); return ok }, false},
		{`999999999999999999`, func(s *Scanner) bool { v, ok := s.Uint(); return ok && v == 999999999999999999 }, true},
		{`1000000000000000000`, func(s *Scanner) bool { _, ok := s.Uint(); return ok }, false},
		{`"12/8"`, func(s *Scanner) bool { n, d, ok := s.Ratio(); return ok && n == 12 && d == 8 }, true},
		{`"007"`, func(s *Scanner) bool { n, d, ok := s.Ratio(); return ok && n == 7 && d == 1 }, true},
		{`"1/0"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`"1/"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`"/2"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`"+1"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`" 1"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`"1 "`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`"1/2/3"`, func(s *Scanner) bool { _, _, ok := s.Ratio(); return ok }, false},
		{`[ ]`, func(s *Scanner) bool { return s.Array(func(int) bool { return false }) }, true},
		{`[1 , 2]`, func(s *Scanner) bool {
			sum := int64(0)
			return s.Array(func(k int) bool { v, ok := s.Uint(); sum += v * int64(k+1); return ok }) && sum == 5
		}, true},
		{`[1,]`, func(s *Scanner) bool { return s.Array(func(int) bool { _, ok := s.Uint(); return ok }) }, false},
		{`[1 2]`, func(s *Scanner) bool { return s.Array(func(int) bool { _, ok := s.Uint(); return ok }) }, false},
		{`{"a":1,"b":2}`, func(s *Scanner) bool {
			keys := ""
			return s.Object(func(k []byte) bool { keys += string(k); _, ok := s.Uint(); return ok }) && keys == "ab"
		}, true},
		{`{"a" 1}`, func(s *Scanner) bool { return s.Object(func([]byte) bool { _, ok := s.Uint(); return ok }) }, false},
		{`{}`, func(s *Scanner) bool { return s.Object(func([]byte) bool { return false }) }, true},
	} {
		s := New([]byte(c.in))
		if got := c.read(&s) && s.End(); got != c.want {
			t.Errorf("%q: read %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEnd(t *testing.T) {
	for in, want := range map[string]bool{"": true, " \t\r\n": true, " }": false, "\v": false} {
		if s := New([]byte(in)); s.End() != want {
			t.Errorf("End(%q) = %v, want %v", in, !want, want)
		}
	}
}
