package model

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/jscan"
	"repro/internal/rat"
)

// instanceJSON is the serialized form of an Instance: operation durations as
// exact "n/d" strings, replication implied by the array shapes.
type instanceJSON struct {
	Comp [][]string   `json:"comp"`
	Comm [][][]string `json:"comm"`
}

// MarshalJSON encodes the instance's timing tables exactly.
func (in *Instance) MarshalJSON() ([]byte, error) {
	out := instanceJSON{
		Comp: make([][]string, in.n),
		Comm: make([][][]string, in.n-1),
	}
	for i := 0; i < in.n; i++ {
		out.Comp[i] = make([]string, in.m[i])
		for a := range out.Comp[i] {
			out.Comp[i][a] = in.comp[i][a].String()
		}
	}
	for i := 0; i < in.n-1; i++ {
		out.Comm[i] = make([][]string, in.m[i])
		for a := range out.Comm[i] {
			out.Comm[i][a] = make([]string, in.m[i+1])
			for b := range out.Comm[i][a] {
				out.Comm[i][a][b] = in.comm[i][a][b].String()
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a serialized instance: ReadCanonical
// when it can, else decodeTimes, which defines the accepted language and
// its error messages.
func (in *Instance) UnmarshalJSON(data []byte) error {
	sc := jscan.New(data)
	var c Instance
	if c.ReadCanonical(&sc) && sc.End() {
		*in = c
		return nil
	}
	inst, err := decodeTimes(data)
	if err == nil {
		*in = *inst
	}
	return err
}

// decodeTimes decodes through encoding/json, ParseRat and FromTimes.
func decodeTimes(data []byte) (*Instance, error) {
	var raw instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	comp := make([][]rat.Rat, len(raw.Comp))
	for i, row := range raw.Comp {
		comp[i] = make([]rat.Rat, len(row))
		for a, s := range row {
			v, err := ParseRat(s)
			if err != nil {
				return nil, fmt.Errorf("model: comp[%d][%d]: %w", i, a, err)
			}
			comp[i][a] = v
		}
	}
	comm := make([][][]rat.Rat, len(raw.Comm))
	for i, mat := range raw.Comm {
		comm[i] = make([][]rat.Rat, len(mat))
		for a, row := range mat {
			comm[i][a] = make([]rat.Rat, len(row))
			for b, s := range row {
				v, err := ParseRat(s)
				if err != nil {
					return nil, fmt.Errorf("model: comm[%d][%d][%d]: %w", i, a, b, err)
				}
				comm[i][a][b] = v
			}
		}
	}
	return FromTimes(comp, comm)
}

// ReadCanonical reads into in the instance at sc in the form MarshalJSON
// writes — {"comp":[[r,…],…],"comm":[[[r,…],…],…]}, keys in either order,
// each r a jscan Ratio — and checks what FromTimes checks. On anything else
// it reports false, leaving in and sc unspecified, and the caller decodes
// through encoding/json. It reads the document twice: for the replica
// counts, so carve sizes every array exactly, then for the values.
func (in *Instance) ReadCanonical(sc *jscan.Scanner) bool {
	start := *sc
	var counts [16]int
	m, links, ok := in.walkCanonical(sc, false, counts[:0])
	// carve allocates what the comp shape implies; only once the document
	// holds that many comm ratios is the allocation bounded by its size.
	for i := 0; i+1 < len(m); i++ {
		links -= m[i] * m[i+1]
	}
	if !ok || len(m) == 0 || links != 0 {
		return false
	}
	*in = carve(len(m), func(i int) int { return m[i] })
	_, _, ok = in.walkCanonical(&start, true, nil)
	return ok && in.finish() == nil
}

// walkCanonical reads the document at sc and counts its comm ratios.
// Unless fill, it appends each comp row's length to m; if fill, it stores
// the values into in, whose carved shape the document must match.
func (in *Instance) walkCanonical(sc *jscan.Scanner, fill bool, m []int) (_ []int, links int, _ bool) {
	// row reads one non-empty array of ratios, if fill into all of dst.
	row := func(dst []rat.Rat) (k int, ok bool) {
		ok = sc.Array(func(a int) bool {
			n, d, ok := sc.Ratio()
			if ok = ok && (!fill || a < len(dst)); ok && fill {
				dst[a] = rat.New(n, d)
			}
			k = a + 1
			return ok
		})
		return k, ok && k > 0 && (!fill || k == len(dst))
	}
	var seenComp, seenComm bool
	matrices := 0
	ok := sc.Object(func(key []byte) bool {
		switch {
		case string(key) == "comp" && !seenComp:
			seenComp = true
			return sc.Array(func(i int) bool {
				k, ok := row(index(in.comp, i))
				if !fill {
					m = append(m, k)
				}
				return ok
			})
		case string(key) == "comm" && !seenComm:
			seenComm = true
			return sc.Array(func(i int) bool {
				mat, senders := index(in.comm, i), 0
				matrices = i + 1
				return sc.Array(func(a int) bool {
					senders = a + 1
					k, ok := row(index(mat, a))
					links += k
					return ok
				}) && (!fill || senders == len(mat))
			})
		}
		return false
	})
	return m, links, ok && seenComp && seenComm && (!fill || matrices == len(in.comm))
}

// index returns s[i], or nil when i is out of range.
func index[E any](s [][]E, i int) []E {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// ParseRat parses "n" or "n/d" into an exact rational.
func ParseRat(s string) (rat.Rat, error) {
	s = strings.TrimSpace(s)
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("bad rational %q: %v", s, err)
	}
	d, err := strconv.ParseInt(den, 10, 64)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("bad rational %q: %v", s, err)
	}
	if d == 0 {
		return rat.Rat{}, fmt.Errorf("bad rational %q: zero denominator", s)
	}
	// Negating -2^63 leaves int64: MarshalJSON would write what this refuses.
	if n == math.MinInt64 || d == math.MinInt64 {
		return rat.Rat{}, fmt.Errorf("bad rational %q: out of range", s)
	}
	return rat.New(n, d), nil
}
