// Package model assembles a pipeline, a platform and a mapping into the
// timed instance every algorithm in this repository consumes: per-operation
// durations (computation times per replica, transfer times per sender/
// receiver pair) plus the replication structure.
//
// Instances can also be built directly from operation times, which is how
// the paper's Table 2 experiments are specified ("computation times between
// 5 and 15", "communication times between 10 and 1000"): the random
// campaign draws durations, not FLOP counts and speeds.
package model

import (
	"fmt"
	"strconv"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
)

// CommModel selects the communication model of the paper.
type CommModel int

const (
	// Overlap is the OVERLAP ONE-PORT model: a processor can simultaneously
	// receive one file, compute, and send one file (full duplex, multi-
	// threaded).
	Overlap CommModel = iota
	// Strict is the STRICT ONE-PORT model: receive, compute and send are
	// mutually exclusive on a processor.
	Strict
)

// String implements fmt.Stringer.
func (m CommModel) String() string {
	switch m {
	case Overlap:
		return "overlap"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("CommModel(%d)", int(m))
	}
}

// Models lists both communication models, for experiment sweeps.
func Models() []CommModel { return []CommModel{Overlap, Strict} }

// Parse parses "overlap" or "strict" — the values the commands' -model
// flags and the service's JSON "model" fields accept.
func Parse(s string) (CommModel, error) {
	switch s {
	case "overlap":
		return Overlap, nil
	case "strict":
		return Strict, nil
	default:
		return Overlap, fmt.Errorf("model: unknown communication model %q (want overlap or strict)", s)
	}
}

// Instance is a fully-timed replicated-workflow instance.
type Instance struct {
	n    int           // number of stages
	m    []int         // replica counts m_i
	comp [][]rat.Rat   // comp[i][a]: compute time of replica a of stage i
	comm [][][]rat.Rat // comm[i][a][b]: transfer time of F_i from replica a of S_i to replica b of S_(i+1)
	proc [][]int       // global processor id per (stage, replica); synthetic ids if built from raw times

	pc int64 // m = lcm(m_i), precomputed at construction: instances are immutable
}

// finish precomputes the derived quantities; both constructors call it
// exactly once on the fully-assembled instance. It fails (rather than
// panicking) when the path count lcm(m_i) overflows int64 — instances
// arrive over the wire, and a hostile replication vector must surface as a
// 400, not a stack trace.
func (in *Instance) finish() error {
	pc, ok := rat.LCMAllChecked(in.ReplicationCounts())
	if !ok {
		return fmt.Errorf("model: path count lcm(m_0..m_%d) overflows int64", in.n-1)
	}
	in.pc = pc
	return nil
}

// FromMapped derives the instance of a (pipeline, platform, mapping) triple.
// All transfer routes demanded by the mapping must exist on the platform.
func FromMapped(pipe *pipeline.Pipeline, plat *platform.Platform, mapp *mapping.Mapping) (*Instance, error) {
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if err := mapp.Validate(plat.NumProcs()); err != nil {
		return nil, err
	}
	if mapp.NumStages() != pipe.NumStages() {
		return nil, fmt.Errorf("model: mapping has %d stages, pipeline has %d", mapp.NumStages(), pipe.NumStages())
	}
	n := pipe.NumStages()
	inst := new(Instance)
	*inst = carve(n, func(i int) int { return len(mapp.Replicas[i]) })
	for i := 0; i < n; i++ {
		copy(inst.proc[i], mapp.Replicas[i])
		for a, u := range mapp.Replicas[i] {
			inst.comp[i][a] = plat.ComputeTime(pipe.Stages[i].Work, u)
		}
	}
	for i := 0; i < n-1; i++ {
		for a, u := range mapp.Replicas[i] {
			for b, v := range mapp.Replicas[i+1] {
				if !plat.HasLink(u, v) {
					return nil, fmt.Errorf("model: mapping requires missing link P%d -> P%d for file F%d", u, v, i)
				}
				inst.comm[i][a][b] = plat.TransferTime(pipe.FileSizes[i], u, v)
			}
		}
	}
	if err := inst.finish(); err != nil {
		return nil, err
	}
	return inst, nil
}

// carve allocates an instance whose stage i has k(i) replicas, with zero
// times and processor ids in stage order, its rows carved out of one
// backing array per element type with no spare capacity: the exact search
// builds an instance per leaf and the service decodes one per request, and
// the replica count would otherwise set their allocation count.
func carve(n int, k func(i int) int) Instance {
	reps, links, senders := 0, 0, 0
	for i := 0; i < n; i++ {
		reps += k(i)
		if i < n-1 {
			senders += k(i)
			links += k(i) * k(i+1)
		}
	}
	times := make([]rat.Rat, reps+links)
	ints := make([]int, n+reps)
	rows := make([][]rat.Rat, n+senders)
	inst := Instance{
		n:    n,
		m:    ints[:n:n],
		comp: rows[:n:n],
		comm: make([][][]rat.Rat, n-1),
		proc: make([][]int, n),
	}
	procBuf, rows := ints[n:], rows[n:]
	for j := range procBuf {
		procBuf[j] = j
	}
	for i := 0; i < n; i++ {
		r := k(i)
		inst.m[i] = r
		inst.comp[i], times = times[:r:r], times[r:]
		inst.proc[i], procBuf = procBuf[:r:r], procBuf[r:]
	}
	for i := 0; i < n-1; i++ {
		inst.comm[i], rows = rows[:inst.m[i]:inst.m[i]], rows[inst.m[i]:]
		for a := range inst.comm[i] {
			r := inst.m[i+1]
			inst.comm[i][a], times = times[:r:r], times[r:]
		}
	}
	return inst
}

// FromTimes builds an instance directly from operation durations.
// comp[i][a] is the computation time of replica a of stage i;
// comm[i][a][b] the transfer time of F_i from sender replica a to receiver
// replica b. Processor ids are synthesized in stage order.
func FromTimes(comp [][]rat.Rat, comm [][][]rat.Rat) (*Instance, error) {
	n := len(comp)
	if n == 0 {
		return nil, fmt.Errorf("model: no stages")
	}
	if len(comm) != n-1 {
		return nil, fmt.Errorf("model: %d stages need %d comm matrices, got %d", n, n-1, len(comm))
	}
	inst := &Instance{
		n:    n,
		m:    make([]int, n),
		comp: make([][]rat.Rat, n),
		comm: make([][][]rat.Rat, n-1),
		proc: make([][]int, n),
	}
	next := 0
	for i := 0; i < n; i++ {
		if len(comp[i]) == 0 {
			return nil, fmt.Errorf("model: stage %d has no replicas", i)
		}
		inst.m[i] = len(comp[i])
		inst.comp[i] = append([]rat.Rat(nil), comp[i]...)
		inst.proc[i] = make([]int, len(comp[i]))
		for a := range comp[i] {
			if comp[i][a].Sign() < 0 {
				return nil, fmt.Errorf("model: negative compute time at stage %d replica %d", i, a)
			}
			inst.proc[i][a] = next
			next++
		}
	}
	for i := 0; i < n-1; i++ {
		if len(comm[i]) != inst.m[i] {
			return nil, fmt.Errorf("model: comm[%d] has %d sender rows, want %d", i, len(comm[i]), inst.m[i])
		}
		inst.comm[i] = make([][]rat.Rat, inst.m[i])
		for a := range comm[i] {
			if len(comm[i][a]) != inst.m[i+1] {
				return nil, fmt.Errorf("model: comm[%d][%d] has %d entries, want %d", i, a, len(comm[i][a]), inst.m[i+1])
			}
			inst.comm[i][a] = append([]rat.Rat(nil), comm[i][a]...)
			for b := range comm[i][a] {
				if comm[i][a][b].Sign() < 0 {
					return nil, fmt.Errorf("model: negative transfer time comm[%d][%d][%d]", i, a, b)
				}
			}
		}
	}
	if err := inst.finish(); err != nil {
		return nil, err
	}
	return inst, nil
}

// NumStages returns n.
func (in *Instance) NumStages() int { return in.n }

// Replication returns m_i.
func (in *Instance) Replication(i int) int { return in.m[i] }

// ReplicationCounts returns all m_i as int64s.
func (in *Instance) ReplicationCounts() []int64 {
	out := make([]int64, in.n)
	for i, v := range in.m {
		out[i] = int64(v)
	}
	return out
}

// PathCount returns m = lcm(m_0..m_(n-1)), precomputed at construction.
func (in *Instance) PathCount() int64 { return in.pc }

// CompTime returns the computation time of replica a of stage i.
func (in *Instance) CompTime(i, a int) rat.Rat { return in.comp[i][a] }

// CommTime returns the transfer time of file F_i from replica a of stage i
// to replica b of stage i+1.
func (in *Instance) CommTime(i, a, b int) rat.Rat { return in.comm[i][a][b] }

// ProcID returns the global processor id of replica a of stage i.
func (in *Instance) ProcID(i, a int) int { return in.proc[i][a] }

// ProcName returns the display name "P<id>" of replica a of stage i.
func (in *Instance) ProcName(i, a int) string { return "P" + strconv.Itoa(in.proc[i][a]) }

// MaxReplication returns max_i m_i (the duplication factor of §5).
func (in *Instance) MaxReplication() int {
	mx := 0
	for _, v := range in.m {
		if v > mx {
			mx = v
		}
	}
	return mx
}
