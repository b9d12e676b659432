package cycles

import "fmt"

// Backend selects the exact maximum-cycle-ratio engine.
//
// Both exact engines return the same ratio on every input (each is exact
// rational arithmetic and each is cross-checked against the other, and
// against a Karp reference kept in the tests, in the differential and fuzz
// harnesses); they differ in cost profile. Cycle iteration on the compiled
// Plan (MaxRatio) relaxes the token edges, then the zero-token DAG in one
// ordered pass, per round of a potential check, and on the unfolded TPNs
// of this repository one or two checks decide. Howard's policy iteration
// evaluates and improves a policy over the whole graph. On the scaling
// families cycle iteration measured 4.5-21x faster than Howard on the
// strict nets and 2.3-5.7x faster on their max-plus recurrence matrices,
// where every edge carries a token (EXPERIMENTS.md, "Cycle iteration
// replaces Karp").
type Backend uint8

const (
	// BackendAuto picks per system by token-edge share (see
	// AutoHowardTokenShareNum/Den). The choice depends only on the system's
	// edge structure, so it is deterministic and batch results stay
	// bit-identical at any parallelism.
	BackendAuto Backend = iota
	// BackendKarp forces cycle iteration on the compiled plan. The name and
	// its "karp" spelling stay from the token contraction + Karp engine
	// that route ran before; they are an alias of the plan route now.
	BackendKarp
	// BackendHoward forces Howard policy iteration.
	BackendHoward

	// NumBackends is the number of Backend values, for callers that range
	// over every backend.
	NumBackends = iota
)

// BackendFloatScreen names the float-screening tier that search callers once
// ran in front of the exact engines.
//
// Deprecated: the exact cutoff (core.Solver.PeriodBelow) replaced it, and
// every engine now rules candidates out with it. BackendFloatScreen equals
// BackendAuto, and ParseBackend still accepts "float-screen" as its alias.
const BackendFloatScreen = BackendAuto

// AutoHowardTokenShareNum/Den is the auto-heuristic crossover as an exact
// fraction: BackendAuto routes to Howard when at least Num/Den of the
// system's edges carry tokens, to the plan route below it. It was tuned on
// the scaling families of bench_test.go (BenchmarkPeriodBackends /
// BenchmarkSpectralBackends) against the Karp engine the plan route
// replaced: unfolded TPNs sit near a token share of 0.03, where Karp won,
// and recurrence matrices at 1.0, where Howard won by 2-20x. Against cycle
// iteration Howard no longer wins on either family; the crossover stays
// until it is re-tuned.
const (
	AutoHowardTokenShareNum = 1
	AutoHowardTokenShareDen = 2
)

// String implements fmt.Stringer (and flag.Value-style rendering).
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendKarp:
		return "karp"
	case BackendHoward:
		return "howard"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// ParseBackend parses "auto", "karp" or "howard", the names a service
// request's "backend" field may carry; "float-screen" is a deprecated alias
// of "auto".
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto", "", "float-screen":
		return BackendAuto, nil
	case "karp":
		return BackendKarp, nil
	case "howard":
		return BackendHoward, nil
	default:
		return BackendAuto, fmt.Errorf("cycles: unknown backend %q (want auto, karp or howard)", s)
	}
}

// Resolve returns the exact engine b runs on s, BackendKarp (the plan
// route) or BackendHoward. BackendAuto routes to Howard when token edges
// make up at least AutoHowardTokenShareNum/Den of all edges (integer
// cross-multiplication, no float drift), to the plan route otherwise; an
// empty system goes to the plan route for the historical error paths.
func (b Backend) Resolve(s *System) Backend {
	if b != BackendAuto {
		return b
	}
	tokenEdges := 0
	for _, tk := range s.Tokens {
		if tk > 0 {
			tokenEdges++
		}
	}
	if len(s.Tokens) > 0 && AutoHowardTokenShareDen*tokenEdges >= AutoHowardTokenShareNum*len(s.Tokens) {
		return BackendHoward
	}
	return BackendKarp
}

// MaxRatioBackend computes the maximum cycle ratio of s with the engine b
// resolves to (Resolve) on the workspace's reused scratch: MaxRatioHoward,
// or MaxRatio, cycle iteration from 0.
func (ws *Workspace) MaxRatioBackend(s *System, b Backend) (Result, error) {
	if b.Resolve(s) == BackendHoward {
		return ws.MaxRatioHoward(s)
	}
	return ws.MaxRatio(s)
}
