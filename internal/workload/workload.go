// Package workload generates the random experiment instances of Section 5
// (Table 2): applications with 2-20 stages mapped onto 7-30 processors, with
// computation and communication times drawn uniformly from the ranges the
// paper lists, and the number of processors computing each stage chosen at
// random.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/rat"
)

// Spec describes one random instance family.
type Spec struct {
	// Stages and Procs fix the instance size; every processor is used.
	Stages, Procs int
	// CompLo..CompHi and CommLo..CommHi are the inclusive uniform ranges for
	// computation and communication times (the paper draws times directly,
	// e.g. "computation times between 5 and 15").
	CompLo, CompHi int64
	CommLo, CommHi int64
	// MaxPathCount, when positive, rejects replication patterns whose
	// m = lcm(m_i) exceeds it (resampled; needed to keep the unfolded
	// strict-model TPN tractable — the paper reports runs of up to 150,000
	// seconds for exactly this reason). Zero means no bound.
	MaxPathCount int64
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if s.Stages < 1 {
		return fmt.Errorf("workload: need at least one stage")
	}
	if s.Procs < s.Stages {
		return fmt.Errorf("workload: %d processors cannot host %d stages", s.Procs, s.Stages)
	}
	if s.CompLo < 1 || s.CompHi < s.CompLo || s.CommLo < 1 || s.CommHi < s.CommLo {
		return fmt.Errorf("workload: bad time ranges comp [%d,%d] comm [%d,%d]",
			s.CompLo, s.CompHi, s.CommLo, s.CommHi)
	}
	return nil
}

// Replication draws a random composition of Procs into Stages positive
// parts: every stage gets one processor, and the remaining Procs-Stages are
// scattered uniformly. When MaxPathCount is set, compositions with too large
// an lcm are resampled (up to a generous retry bound).
func (s Spec) Replication(rng *rand.Rand) ([]int, error) {
	const maxTries = 10000
	for try := 0; try < maxTries; try++ {
		reps := make([]int, s.Stages)
		for i := range reps {
			reps[i] = 1
		}
		for k := s.Stages; k < s.Procs; k++ {
			reps[rng.Intn(s.Stages)]++
		}
		if s.MaxPathCount > 0 {
			counts := make([]int64, len(reps))
			for i, r := range reps {
				counts[i] = int64(r)
			}
			if m, ok := rat.LCMAllChecked(counts); !ok || m > s.MaxPathCount {
				continue
			}
		}
		return reps, nil
	}
	return nil, fmt.Errorf("workload: could not draw replication with lcm <= %d for %d stages on %d procs",
		s.MaxPathCount, s.Stages, s.Procs)
}

// Instance draws one random instance.
func (s Spec) Instance(rng *rand.Rand) (*model.Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reps, err := s.Replication(rng)
	if err != nil {
		return nil, err
	}
	drawComp := func() rat.Rat { return rat.FromInt(s.CompLo + rng.Int63n(s.CompHi-s.CompLo+1)) }
	drawComm := func() rat.Rat { return rat.FromInt(s.CommLo + rng.Int63n(s.CommHi-s.CommLo+1)) }
	comp := make([][]rat.Rat, s.Stages)
	for i := range comp {
		comp[i] = make([]rat.Rat, reps[i])
		for a := range comp[i] {
			comp[i][a] = drawComp()
		}
	}
	comm := make([][][]rat.Rat, s.Stages-1)
	for i := range comm {
		comm[i] = make([][]rat.Rat, reps[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, reps[i+1])
			for b := range comm[i][a] {
				comm[i][a][b] = drawComm()
			}
		}
	}
	return model.FromTimes(comp, comm)
}
