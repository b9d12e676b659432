package cycles

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rat"
)

// TestHowardWorkspaceMatchesKarp runs both exact engines on one shared
// workspace over 200 random live systems: the ratios must agree exactly and
// each engine's witness must attain the reported ratio.
func TestHowardWorkspaceMatchesKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		s := randomLiveSystem(rng, 2+rng.Intn(20))
		karp, err := ws.MaxRatio(s)
		if err != nil {
			t.Fatalf("trial %d karp: %v", trial, err)
		}
		how, err := ws.MaxRatioHoward(s)
		if err != nil {
			t.Fatalf("trial %d howard: %v", trial, err)
		}
		if !karp.Ratio.Equal(how.Ratio) {
			t.Fatalf("trial %d: karp %v != howard %v", trial, karp.Ratio, how.Ratio)
		}
		for name, res := range map[string]Result{"karp": karp, "howard": how} {
			wr, err := s.CycleRatio(res.Cycle)
			if err != nil {
				t.Fatalf("trial %d %s witness: %v", trial, name, err)
			}
			if !wr.Equal(res.Ratio) {
				t.Fatalf("trial %d: %s witness ratio %v != reported %v", trial, name, wr, res.Ratio)
			}
		}
		if err := s.VerifyRatio(how.Ratio); err != nil {
			t.Fatalf("trial %d: certificate: %v", trial, err)
		}
	}
}

// TestHowardWorkspaceMatchesFresh requires a reused workspace to return
// results bit-identical — ratio and witness — to a fresh workspace per call:
// Howard is deterministic, so any divergence means scratch leaked between
// calls.
func TestHowardWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var shared Workspace
	for trial := 0; trial < 80; trial++ {
		s := randomLiveSystem(rng, 2+rng.Intn(16))
		got, gotErr := shared.MaxRatioHoward(s)
		var fresh Workspace
		want, wantErr := fresh.MaxRatioHoward(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err %v vs %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.Ratio.Equal(want.Ratio) {
			t.Fatalf("trial %d: shared ratio %v != fresh %v", trial, got.Ratio, want.Ratio)
		}
		if len(got.Cycle) != len(want.Cycle) {
			t.Fatalf("trial %d: witness lengths differ: %v vs %v", trial, got.Cycle, want.Cycle)
		}
		for i := range got.Cycle {
			if got.Cycle[i] != want.Cycle[i] {
				t.Fatalf("trial %d: witness differs at %d: %v vs %v", trial, i, got.Cycle, want.Cycle)
			}
		}
	}
}

// TestWorkspaceInterleaveNoStaleTables is the regression test for the
// stale-policy-table hazard: a Howard run followed by a Karp run (and vice
// versa) on the same workspace must be bit-identical — ratio AND witness —
// to the same run on a workspace the other engine never touched. Howard's
// policy tables live in their own scratch struct and every entry a run reads
// is re-initialized, so neither engine can observe the other's leftovers.
func TestWorkspaceInterleaveNoStaleTables(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var shared Workspace
	identical := func(t *testing.T, trial int, label string, got, want Result) {
		t.Helper()
		if !got.Ratio.Equal(want.Ratio) {
			t.Fatalf("trial %d %s: interleaved ratio %v != isolated %v", trial, label, got.Ratio, want.Ratio)
		}
		if len(got.Cycle) != len(want.Cycle) {
			t.Fatalf("trial %d %s: witness %v != isolated %v", trial, label, got.Cycle, want.Cycle)
		}
		for i := range got.Cycle {
			if got.Cycle[i] != want.Cycle[i] {
				t.Fatalf("trial %d %s: witness %v != isolated %v", trial, label, got.Cycle, want.Cycle)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		// Two systems of different sizes so grown tables carry plausible
		// stale content from one into the other.
		a := randomLiveSystem(rng, 3+rng.Intn(18))
		b := randomLiveSystem(rng, 3+rng.Intn(18))

		// Howard on a, then Karp on b — Karp must not see Howard's tables.
		if _, err := shared.MaxRatioHoward(a); err != nil {
			t.Fatalf("trial %d howard(a): %v", trial, err)
		}
		gotKarp, err := shared.MaxRatio(b)
		if err != nil {
			t.Fatalf("trial %d karp(b): %v", trial, err)
		}
		var freshK Workspace
		wantKarp, err := freshK.MaxRatio(b)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, trial, "howard->karp", gotKarp, wantKarp)

		// Karp on a, then Howard on b — and the other direction.
		if _, err := shared.MaxRatio(a); err != nil {
			t.Fatalf("trial %d karp(a): %v", trial, err)
		}
		gotHow, err := shared.MaxRatioHoward(b)
		if err != nil {
			t.Fatalf("trial %d howard(b): %v", trial, err)
		}
		var freshH Workspace
		wantHow, err := freshH.MaxRatioHoward(b)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, trial, "karp->howard", gotHow, wantHow)
	}
}

// TestHowardErrors checks the error semantics match the Karp engine's.
func TestHowardErrors(t *testing.T) {
	var ws Workspace

	neg := NewSystem(2)
	neg.AddEdge(0, 1, rat.FromInt(-1), 1)
	neg.AddEdge(1, 0, rat.FromInt(1), 1)
	if _, err := ws.MaxRatioHoward(neg); err == nil {
		t.Error("negative cost accepted")
	}

	dead := NewSystem(2)
	dead.AddEdge(0, 1, rat.FromInt(1), 0)
	dead.AddEdge(1, 0, rat.FromInt(1), 0)
	if _, err := ws.MaxRatioHoward(dead); !errors.Is(err, ErrDeadlock) {
		t.Errorf("zero-token cycle: got %v, want ErrDeadlock", err)
	}

	acyc := NewSystem(3)
	acyc.AddEdge(0, 1, rat.FromInt(1), 1)
	acyc.AddEdge(1, 2, rat.FromInt(1), 0)
	if _, err := ws.MaxRatioHoward(acyc); !errors.Is(err, ErrNoCycle) {
		t.Errorf("acyclic: got %v, want ErrNoCycle", err)
	}
}

// TestHowardMultiTokenEdges: Howard handles token counts > 1 directly (no
// edge expansion): a loop of cost 9 with 3 tokens has ratio 3.
func TestHowardMultiTokenEdges(t *testing.T) {
	var ws Workspace
	s := NewSystem(1)
	s.AddEdge(0, 0, rat.FromInt(9), 3)
	res, err := ws.MaxRatioHoward(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.FromInt(3)) {
		t.Errorf("ratio %v, want 3", res.Ratio)
	}
	if wr, err := s.CycleRatio(res.Cycle); err != nil || !wr.Equal(res.Ratio) {
		t.Errorf("witness ratio %v err %v", wr, err)
	}
}

// TestBackendParseString round-trips the flag values.
func TestBackendParseString(t *testing.T) {
	// Every backend value — current and future — must round-trip through
	// String/ParseBackend, so a new tier cannot ship half-wired.
	for i := 0; i < NumBackends; i++ {
		b := Backend(i)
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if b, err := ParseBackend(""); err != nil || b != BackendAuto {
		t.Errorf("empty backend = %v, %v; want auto", b, err)
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Error("bogus backend accepted")
	}
	// The error message is user-facing flag help: it must enumerate every
	// parseable tier (the fix this PR's satellite demands).
	_, err := ParseBackend("bogus")
	for i := 0; i < NumBackends; i++ {
		if name := Backend(i).String(); !strings.Contains(err.Error(), name) {
			t.Errorf("ParseBackend error %q does not mention %q", err, name)
		}
	}
}

// TestMaxRatioBackendRouting: every backend value returns the same exact
// ratio, on systems on both sides of the auto heuristic — a sparse-token
// ring with chords (auto routes to Karp: contraction keeps the graph tiny)
// and a dense all-token system (auto routes to Howard: contraction would
// degenerate to the identity and Karp would pay its full quadratic table).
func TestMaxRatioBackendRouting(t *testing.T) {
	var ws Workspace
	rng := rand.New(rand.NewSource(8))

	sparse := ring(40, rat.New(7, 3))
	for k := 0; k < 12; k++ {
		u := rng.Intn(39)
		v := u + 1 + rng.Intn(39-u)
		sparse.AddEdge(u, v, rat.FromInt(int64(1+rng.Intn(9))), 0)
		sparse.AddEdge(v, u, rat.FromInt(int64(1+rng.Intn(9))), 1)
	}
	dense := NewSystem(20)
	for u := 0; u < 20; u++ {
		for k := 0; k < 4; k++ {
			dense.AddEdge(u, rng.Intn(20), rat.FromInt(int64(1+rng.Intn(30))), 1)
		}
	}
	for name, s := range map[string]*System{"sparse-tokens": sparse, "all-tokens": dense} {
		want, err := ws.MaxRatio(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{BackendAuto, BackendKarp, BackendHoward} {
			got, err := ws.MaxRatioBackend(s, b)
			if err != nil {
				t.Fatalf("%s backend=%v: %v", name, b, err)
			}
			if !got.Ratio.Equal(want.Ratio) {
				t.Fatalf("%s backend=%v: ratio %v != %v", name, b, got.Ratio, want.Ratio)
			}
			if wr, err := s.CycleRatio(got.Cycle); err != nil || !wr.Equal(got.Ratio) {
				t.Fatalf("%s backend=%v: witness ratio %v err %v", name, b, wr, err)
			}
		}
	}
	if b := BackendAuto.Resolve(sparse); b != BackendKarp {
		t.Errorf("auto on sparse-token system routed to %v, want karp", b)
	}
	if b := BackendAuto.Resolve(dense); b != BackendHoward {
		t.Errorf("auto on all-token system routed to %v, want howard", b)
	}
}

// TestHowardReuseCutsAllocations: after warm-up, a Howard evaluation on a
// reused workspace allocates only the escaping witness slice — the
// zero-allocation reuse story of the contraction engine carries over.
func TestHowardReuseCutsAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randomLiveSystem(rng, 40)
	var ws Workspace
	if _, err := ws.MaxRatioHoward(s); err != nil { // warm-up sizes the tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.MaxRatioHoward(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("reused Howard workspace: %.1f allocs/op, want <= 4 (witness only)", allocs)
	}
}
