package cycles

// Native fuzz target cross-checking the exact cycle-ratio engines on small
// systems: fuzz bytes decode into a system (every byte string decodes), and
// cycle iteration — on the arithmetic the costs select and forced to
// rationals — the Karp reference and Howard must return the same ratio or
// the same error: ErrDeadlock, ErrNoCycle or the negative-cost error. A
// seeded corpus lives in testdata/fuzz/FuzzMaxRatio; CI runs a short -fuzz
// smoke on top of the regression replay that plain `go test` performs.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rat"
)

// decodeFuzzSystem turns bytes into a system of 1..6 vertices and up to 16
// edges. A mode byte picks the costs: small integers, fractions, costs near
// 10^30 that only rationals carry, or small integers with an occasional
// negative one. Token counts are 0..3, so multi-token edges, zero-token
// cycles (deadlocks) and acyclic systems all occur.
func decodeFuzzSystem(data []byte) *System {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%6
	mode := next() % 4
	m := next() % 17
	s := NewSystem(n)
	huge, _ := rat.Parse("1000000000000000000000000000000")
	for k := 0; k < m; k++ {
		u, v, c, tok := next()%n, next()%n, int64(next()%16), next()%4
		cost := rat.FromInt(c)
		switch mode {
		case 1:
			cost = rat.New(c, int64(1+next()%9))
		case 2:
			cost = huge.Add(rat.New(c, int64(1+next()%9)))
		case 3:
			if next()%8 == 0 {
				cost = rat.FromInt(-c - 1)
			}
		}
		s.AddEdge(u, v, cost, tok)
	}
	return s
}

// sameError reports whether two engines failed alike: both succeeded, both
// with the same sentinel, or both with the same message.
func sameError(a, b error) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case errors.Is(a, ErrDeadlock) || errors.Is(a, ErrNoCycle):
		return errors.Is(b, ErrDeadlock) == errors.Is(a, ErrDeadlock) && errors.Is(b, ErrNoCycle) == errors.Is(a, ErrNoCycle)
	default:
		return a.Error() == b.Error()
	}
}

func FuzzMaxRatio(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 0, 1, 5, 0, 1, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeFuzzSystem(data)
		var ws, wr Workspace
		wr.forceRat = true
		got, err := ws.MaxRatio(s)
		forced, ferr := wr.MaxRatio(s)
		karp, kerr := s.MaxRatioKarp()
		how, herr := s.MaxRatioHoward()
		for name, e := range map[string]error{"forced rational": ferr, "karp": kerr, "howard": herr} {
			if !sameError(err, e) {
				t.Fatalf("cycle iteration err %v, %s err %v", err, name, e)
			}
		}
		if err != nil {
			return
		}
		if got.Ratio.String() != forced.Ratio.String() || !slices.Equal(got.Cycle, forced.Cycle) {
			t.Fatalf("cycle iteration %v %v, forced rational %v %v", got.Ratio, got.Cycle, forced.Ratio, forced.Cycle)
		}
		if !got.Ratio.Equal(karp) || !got.Ratio.Equal(how.Ratio) {
			t.Fatalf("cycle iteration %v, karp %v, howard %v", got.Ratio, karp, how.Ratio)
		}
		if cr, err := s.CycleRatio(got.Cycle); err != nil || !cr.Equal(got.Ratio) {
			t.Fatalf("witness %v has ratio %v (%v), want %v", got.Cycle, cr, err, got.Ratio)
		}
	})
}
