// Package mapping models the assignment of workflow stages to processors,
// including replication: stage S_i may be mapped onto m_i distinct
// processors that serve consecutive data sets in round-robin order.
//
// Two rules from the paper are enforced: a processor executes at most one
// stage, and replicas of a stage are used strictly round-robin. Under those
// rules data set j follows the path
//
//	(P_{0, j mod m_0}, P_{1, j mod m_1}, …, P_{n-1, j mod m_(n-1)})
//
// and the number of distinct paths is m = lcm(m_0, …, m_(n-1))
// (Proposition 1, illustrated by Table 1 for Example A).
package mapping

import (
	"encoding/json"
	"fmt"

	"repro/internal/rat"
)

// Mapping assigns each stage an ordered list of processor ids. The order
// matters: it is the round-robin order.
type Mapping struct {
	// Replicas[i] lists the processors executing stage i.
	Replicas [][]int `json:"replicas"`
}

// New builds a mapping and validates it against the given processor count.
func New(replicas [][]int, numProcs int) (*Mapping, error) {
	m := &Mapping{Replicas: replicas}
	if err := m.Validate(numProcs); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNew is New but panics on error; for tests and fixed examples.
func MustNew(replicas [][]int, numProcs int) *Mapping {
	m, err := New(replicas, numProcs)
	if err != nil {
		panic(err)
	}
	return m
}

// NumStages returns the number of mapped stages.
func (m *Mapping) NumStages() int { return len(m.Replicas) }

// ReplicationCount returns m_i, the number of processors running stage i.
func (m *Mapping) ReplicationCount(i int) int { return len(m.Replicas[i]) }

// ReplicationCounts returns (m_0, …, m_(n-1)) as int64s.
func (m *Mapping) ReplicationCounts() []int64 {
	out := make([]int64, len(m.Replicas))
	for i, r := range m.Replicas {
		out[i] = int64(len(r))
	}
	return out
}

// Validate checks the paper's mapping rules: every stage has at least one
// replica, replica lists reference valid processors, and no processor
// executes more than one stage (nor appears twice in a stage).
func (m *Mapping) Validate(numProcs int) error {
	if len(m.Replicas) == 0 {
		return fmt.Errorf("mapping: no stages")
	}
	used := make([]int, max(numProcs, 0)) // proc -> stage+1, 0 when unused
	for i, procs := range m.Replicas {
		if len(procs) == 0 {
			return fmt.Errorf("mapping: stage %d has no processors", i)
		}
		for _, u := range procs {
			if u < 0 || u >= numProcs {
				return fmt.Errorf("mapping: stage %d uses invalid processor %d (platform has %d)", i, u, numProcs)
			}
			if prev := used[u] - 1; prev == i {
				return fmt.Errorf("mapping: processor %d listed twice for stage %d", u, i)
			} else if prev >= 0 {
				return fmt.Errorf("mapping: processor %d assigned to both stage %d and stage %d", u, prev, i)
			}
			used[u] = i + 1
		}
	}
	return nil
}

// PathCount returns m = lcm(m_0, …, m_(n-1)), the number of distinct paths
// followed by the input data (Proposition 1).
func (m *Mapping) PathCount() int64 {
	return rat.LCMAll(m.ReplicationCounts())
}

// ProcForDataSet returns the processor executing stage i for data set j
// (round-robin: replica j mod m_i).
func (m *Mapping) ProcForDataSet(i int, j int64) int {
	r := m.Replicas[i]
	return r[int(j%int64(len(r)))]
}

// Path returns the full processor path of data set j.
func (m *Mapping) Path(j int64) []int {
	out := make([]int, len(m.Replicas))
	for i := range m.Replicas {
		out[i] = m.ProcForDataSet(i, j)
	}
	return out
}

// Paths returns the m distinct paths, in the order they are first used
// (path j serves data sets j, j+m, j+2m, …). This regenerates Table 1.
func (m *Mapping) Paths() [][]int {
	n := m.PathCount()
	out := make([][]int, n)
	for j := int64(0); j < n; j++ {
		out[j] = m.Path(j)
	}
	return out
}

// StageOf returns the stage a processor executes and its replica index, or
// (-1, -1) if the processor is unused.
func (m *Mapping) StageOf(proc int) (stage, replica int) {
	for i, procs := range m.Replicas {
		for a, u := range procs {
			if u == proc {
				return i, a
			}
		}
	}
	return -1, -1
}

// UsedProcs returns all processors referenced by the mapping, in stage order.
func (m *Mapping) UsedProcs() []int {
	var out []int
	for _, procs := range m.Replicas {
		out = append(out, procs...)
	}
	return out
}

// UnmarshalJSON decodes without validation (the processor count is not known
// here); callers validate explicitly against their platform.
func (m *Mapping) UnmarshalJSON(data []byte) error {
	type alias Mapping
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*m = Mapping(a)
	return nil
}

// String renders e.g. "S0->[0] S1->[1 2] S2->[3 4 5] S3->[6]".
func (m *Mapping) String() string {
	s := ""
	for i, procs := range m.Replicas {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("S%d->%v", i, procs)
	}
	return s
}
