package model

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

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

// UnmarshalJSON decodes and validates a serialized instance.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var raw instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	comp := make([][]rat.Rat, len(raw.Comp))
	for i, row := range raw.Comp {
		comp[i] = make([]rat.Rat, len(row))
		for a, s := range row {
			v, err := ParseRat(s)
			if err != nil {
				return fmt.Errorf("model: comp[%d][%d]: %w", i, a, err)
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
					return fmt.Errorf("model: comm[%d][%d][%d]: %w", i, a, b, err)
				}
				comm[i][a][b] = v
			}
		}
	}
	inst, err := FromTimes(comp, comm)
	if err != nil {
		return err
	}
	*in = *inst
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
