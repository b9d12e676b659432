package cycles

import "fmt"

// Backend selects the exact maximum-cycle-ratio engine.
//
// Both exact engines return the same ratio on every input (each is exact
// rational arithmetic and each is cross-checked against the other in the
// differential and fuzz harnesses); they differ in cost profile. Token
// contraction + Karp is excellent when token edges are sparse — the
// contracted graph then has one vertex per token edge and stays tiny no
// matter how large the net is (a strict-model TPN carries one token per
// processor, so a 624-transition net contracts to ~25 vertices). When token
// edges are plentiful — the max-plus recurrence matrices of the mpa layer
// put a token on EVERY edge — contraction degenerates to the identity and
// Karp pays its full Θ(V·E) dynamic program with a Θ(V²) table, while
// Howard's policy iteration still converges in a handful of sweeps: 2x
// faster on the smallest scaling family's recurrence matrix, 20x on the
// largest, against Karp on scaled int64 costs (see the Karp-vs-Howard
// table in EXPERIMENTS.md).
type Backend uint8

const (
	// BackendAuto picks per system by token-edge share (see
	// AutoHowardTokenShareNum/Den). The choice depends only on the system's
	// edge structure, so it is deterministic and batch results stay
	// bit-identical at any parallelism.
	BackendAuto Backend = iota
	// BackendKarp forces token contraction + Karp's maximum mean cycle.
	BackendKarp
	// BackendHoward forces Howard policy iteration.
	BackendHoward

	// NumBackends is the number of Backend values; callers sizing per-backend
	// tables (the service keeps one engine per backend) use it so a new
	// backend cannot silently overflow them.
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
// system's edges carry tokens, to Karp below it. Benchmark-tuned on the
// scaling families of bench_test.go (BenchmarkPeriodBackends /
// BenchmarkSpectralBackends, table in EXPERIMENTS.md): unfolded TPNs sit
// near a token share of 0.03 and Karp's contraction wins by 4-5x,
// recurrence matrices sit at 1.0 and Howard wins by 2-20x; any cutoff
// between those regimes behaves identically on this repository's
// workloads, so the midpoint 1/2 is taken.
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

// ParseBackend parses "auto", "karp" or "howard" (the -backend flag values
// of the commands); "float-screen" is a deprecated alias of "auto".
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

// Resolve returns the exact engine b runs on s, BackendKarp or
// BackendHoward. BackendAuto routes to Howard when token edges make up at
// least AutoHowardTokenShareNum/Den of all edges (integer
// cross-multiplication, no float drift), to Karp otherwise; an empty system
// goes to Karp for the historical error paths.
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
// resolves to (Resolve) on the workspace's reused scratch.
func (ws *Workspace) MaxRatioBackend(s *System, b Backend) (Result, error) {
	if b.Resolve(s) == BackendHoward {
		return ws.MaxRatioHoward(s)
	}
	return ws.MaxRatio(s)
}
