// Package mpa implements the (max,+) algebra layer the paper builds on
// (reference [2], Baccelli, Cohen, Olsder, Quadrat: "Synchronization and
// Linearity"): the max-plus semiring, matrices over it, and the translation
// of a timed event graph into a max-plus linear recurrence
//
//	x(k) = A ⊗ x(k-1)
//
// whose spectral radius (maximum cycle mean of the precedence graph) is the
// TPN period. The package provides an independent route to the throughput —
// cross-checked in tests against the cycle-ratio engines and the net
// unrolling — and a reusable substrate for further (max,+) experiments.
package mpa

import (
	"fmt"
	"strings"

	"repro/internal/cycles"
	"repro/internal/petri"
	"repro/internal/rat"
)

// Scalar is an element of the max-plus semiring R ∪ {-∞}: ⊕ is max (neutral
// -∞), ⊗ is + (neutral 0).
type Scalar struct {
	v      rat.Rat
	finite bool
}

// NegInf returns -∞, the ⊕-neutral element.
func NegInf() Scalar { return Scalar{} }

// S wraps a rational as a finite scalar.
func S(v rat.Rat) Scalar { return Scalar{v: v, finite: true} }

// SInt wraps an integer.
func SInt(v int64) Scalar { return S(rat.FromInt(v)) }

// IsNegInf reports whether the scalar is -∞.
func (s Scalar) IsNegInf() bool { return !s.finite }

// Rat returns the finite value; it panics on -∞.
func (s Scalar) Rat() rat.Rat {
	if !s.finite {
		panic("mpa: Rat of -inf")
	}
	return s.v
}

// Oplus returns max(s, t).
func (s Scalar) Oplus(t Scalar) Scalar {
	switch {
	case !s.finite:
		return t
	case !t.finite:
		return s
	case s.v.Less(t.v):
		return t
	default:
		return s
	}
}

// Otimes returns s + t (with -∞ absorbing).
func (s Scalar) Otimes(t Scalar) Scalar {
	if !s.finite || !t.finite {
		return NegInf()
	}
	return S(s.v.Add(t.v))
}

// Equal reports semiring equality.
func (s Scalar) Equal(t Scalar) bool {
	if s.finite != t.finite {
		return false
	}
	return !s.finite || s.v.Equal(t.v)
}

// String implements fmt.Stringer.
func (s Scalar) String() string {
	if !s.finite {
		return "-inf"
	}
	return s.v.String()
}

// Matrix is a square max-plus matrix.
type Matrix struct {
	n int
	a []Scalar // row-major
}

// NewMatrix returns the n×n matrix filled with -∞ (the ⊕-zero matrix).
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("mpa: matrix size must be positive")
	}
	return &Matrix{n: n, a: make([]Scalar, n*n)}
}

// Identity returns the max-plus identity: 0 on the diagonal, -∞ elsewhere.
func Identity(n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, SInt(0))
	}
	return m
}

// Dim returns the dimension.
func (m *Matrix) Dim() int { return m.n }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) Scalar { return m.a[i*m.n+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v Scalar) { m.a[i*m.n+j] = v }

// OplusAt maxes v into entry (i, j).
func (m *Matrix) OplusAt(i, j int, v Scalar) { m.Set(i, j, m.At(i, j).Oplus(v)) }

// Mul returns the max-plus product m ⊗ o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.n != o.n {
		panic(fmt.Sprintf("mpa: dimension mismatch %d vs %d", m.n, o.n))
	}
	out := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		for k := 0; k < m.n; k++ {
			mik := m.At(i, k)
			if mik.IsNegInf() {
				continue
			}
			for j := 0; j < m.n; j++ {
				okj := o.At(k, j)
				if okj.IsNegInf() {
					continue
				}
				out.OplusAt(i, j, mik.Otimes(okj))
			}
		}
	}
	return out
}

// Apply returns m ⊗ x for a vector x.
func (m *Matrix) Apply(x []Scalar) []Scalar {
	if len(x) != m.n {
		panic("mpa: vector dimension mismatch")
	}
	out := make([]Scalar, m.n)
	for i := 0; i < m.n; i++ {
		acc := NegInf()
		for j := 0; j < m.n; j++ {
			mij := m.At(i, j)
			if mij.IsNegInf() || x[j].IsNegInf() {
				continue
			}
			acc = acc.Oplus(mij.Otimes(x[j]))
		}
		out[i] = acc
	}
	return out
}

// Pow returns m ⊗ m ⊗ … (k times); k = 0 gives the identity.
func (m *Matrix) Pow(k int) *Matrix {
	if k < 0 {
		panic("mpa: negative power")
	}
	out := Identity(m.n)
	base := m
	for k > 0 {
		if k&1 == 1 {
			out = out.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return out
}

// Star returns the Kleene star m* = I ⊕ m ⊕ m² ⊕ …, which exists iff the
// precedence graph of m has no cycle of positive weight. It is computed with
// a Floyd–Warshall sweep and returns an error on a positive cycle.
func (m *Matrix) Star() (*Matrix, error) {
	out := Identity(m.n)
	// Start from I ⊕ m.
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			out.OplusAt(i, j, m.At(i, j))
		}
	}
	for k := 0; k < m.n; k++ {
		for i := 0; i < m.n; i++ {
			oik := out.At(i, k)
			if oik.IsNegInf() {
				continue
			}
			for j := 0; j < m.n; j++ {
				okj := out.At(k, j)
				if okj.IsNegInf() {
					continue
				}
				out.OplusAt(i, j, oik.Otimes(okj))
			}
		}
	}
	for i := 0; i < m.n; i++ {
		d := out.At(i, i)
		if !d.IsNegInf() && d.Rat().Sign() > 0 {
			return nil, fmt.Errorf("mpa: star undefined (positive cycle through %d)", i)
		}
	}
	return out, nil
}

// PrecedenceSystem builds the precedence graph of m as a cycle-ratio
// system: one vertex per matrix index, and for every finite entry m[i][j] an
// edge j -> i of cost m[i][j] carrying one token (x_i(k+1) >= m[i][j] +
// x_j(k)). Its maximum cycle ratio is the max-plus spectral radius.
func (m *Matrix) PrecedenceSystem() *cycles.System {
	sys := cycles.NewSystem(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v := m.At(i, j); !v.IsNegInf() {
				sys.AddEdge(j, i, v.Rat(), 1)
			}
		}
	}
	return sys
}

// Eigenvalue returns the max-plus spectral radius of m: the maximum cycle
// mean of its precedence graph. Returns cycles.ErrNoCycle when the graph is
// acyclic.
func (m *Matrix) Eigenvalue() (rat.Rat, error) {
	res, err := m.PrecedenceSystem().MaxRatio()
	if err != nil {
		return rat.Rat{}, err
	}
	return res.Ratio, nil
}

// EigenvalueBackend computes the spectral radius with the selected
// cycle-ratio backend, returning the eigenvalue together with a critical
// cycle of the precedence graph as a vertex sequence (matrix indices, first
// vertex not repeated). Every backend returns the same exact eigenvalue;
// the witness always attains it.
func (m *Matrix) EigenvalueBackend(b cycles.Backend) (rat.Rat, []int, error) {
	sys := m.PrecedenceSystem()
	var ws cycles.Workspace
	res, err := ws.MaxRatioBackend(sys, b)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	return res.Ratio, sys.CycleVertices(res.Cycle), nil
}

// Howard computes the max-plus spectral radius of m by Howard's policy
// iteration — exact rational arithmetic throughout — and returns the
// eigenvalue with a critical-cycle witness (vertex sequence of the
// precedence graph). It is the fast path for the large recurrence matrices
// of big scenario grids, which put a token on every edge; the two engines
// are cross-checked in the differential and fuzz harnesses.
func Howard(m *Matrix) (rat.Rat, []int, error) {
	return m.EigenvalueBackend(cycles.BackendHoward)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8s", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FromNet converts a live timed event graph with 0/1-token places into the
// max-plus recurrence x(k) = A ⊗ x(k-1) on transition start times, where
// x_i(k) is the start of the k-th firing of transition i:
//
//	x(k) = A0 ⊗ x(k) ⊕ A1 ⊗ x(k-1)   =>   x(k) = A0* ⊗ A1 ⊗ x(k-1)
//
// with A0 collecting token-free places (weight = firing time of the source
// transition) and A1 the single-token places. A0* exists because the
// token-free subgraph of a live net is acyclic. Places with more than one
// token are rejected (the paper's nets only use 0/1 markings).
func FromNet(net *petri.Net) (*Matrix, error) {
	n := len(net.Transitions)
	if n == 0 {
		return nil, fmt.Errorf("mpa: empty net")
	}
	a0 := NewMatrix(n)
	a1 := NewMatrix(n)
	for _, p := range net.Places {
		w := S(net.Transitions[p.From].Time)
		switch p.Tokens {
		case 0:
			a0.OplusAt(p.To, p.From, w)
		case 1:
			a1.OplusAt(p.To, p.From, w)
		default:
			return nil, fmt.Errorf("mpa: place with %d tokens not supported", p.Tokens)
		}
	}
	star, err := a0.Star()
	if err != nil {
		return nil, fmt.Errorf("mpa: net not live: %w", err)
	}
	return star.Mul(a1), nil
}

// CycleTime returns the TPN period of a net via the max-plus spectral
// radius of its recurrence matrix — an independent implementation of
// petri.Net.MaxCycleRatio.
func CycleTime(net *petri.Net) (rat.Rat, error) {
	a, err := FromNet(net)
	if err != nil {
		return rat.Rat{}, err
	}
	return a.Eigenvalue()
}

// CycleTimeBackend is CycleTime with an explicit cycle-ratio backend.
func CycleTimeBackend(net *petri.Net, b cycles.Backend) (rat.Rat, error) {
	a, err := FromNet(net)
	if err != nil {
		return rat.Rat{}, err
	}
	lambda, _, err := a.EigenvalueBackend(b)
	return lambda, err
}
