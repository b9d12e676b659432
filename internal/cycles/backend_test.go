package cycles

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// TestFloatScreenBackendResolvesExact: the deprecated float-screen backend
// is the auto backend under another name, parsed from its old flag value,
// so anything evaluated through MaxRatioBackend is bit-identical across
// auto and float-screen.
func TestFloatScreenBackendResolvesExact(t *testing.T) {
	if BackendFloatScreen != BackendAuto {
		t.Fatalf("BackendFloatScreen = %v, want auto", BackendFloatScreen)
	}
	if b, err := ParseBackend("float-screen"); err != nil || b != BackendAuto {
		t.Fatalf(`ParseBackend("float-screen") = %v, %v; want auto`, b, err)
	}
	if NumBackends != 3 {
		t.Fatalf("NumBackends = %d, want 3", NumBackends)
	}
	rng := rand.New(rand.NewSource(42))
	var wsA, wsF Workspace
	for trial := 0; trial < 50; trial++ {
		s := randomLiveSystem(rng, 3+rng.Intn(6))
		a, errA := wsA.MaxRatioBackend(s, BackendAuto)
		f, errF := wsF.MaxRatioBackend(s, BackendFloatScreen)
		if (errA == nil) != (errF == nil) {
			t.Fatalf("trial %d: error divergence auto=%v float-screen=%v", trial, errA, errF)
		}
		if errA != nil {
			continue
		}
		if !a.Ratio.Equal(f.Ratio) {
			t.Fatalf("trial %d: auto %v != float-screen %v", trial, a.Ratio, f.Ratio)
		}
	}
}

// TestFromFloatExact: rat.FromFloat converts the float, not the decimal it
// was written as.
func TestFromFloatExact(t *testing.T) {
	x, ok := rat.FromFloat(0.1)
	if !ok {
		t.Fatal("FromFloat(0.1) failed")
	}
	// 0.1 rounds to 3602879701896397 / 2^55 — the exact value of the float,
	// not the decimal it came from.
	want := rat.New(3602879701896397, 1).Div(rat.FromInt(1 << 55))
	if !x.Equal(want) {
		t.Errorf("FromFloat(0.1) = %v, want %v", x, want)
	}
	if x.Equal(rat.New(1, 10)) {
		t.Error("FromFloat(0.1) must not equal 1/10: the conversion is of the float, not the decimal")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := rat.FromFloat(f); ok {
			t.Errorf("FromFloat(%v) must report !ok", f)
		}
	}
	if y, ok := rat.FromFloat(-2.5); !ok || !y.Equal(rat.New(-5, 2)) {
		t.Errorf("FromFloat(-2.5) = %v, %v", y, ok)
	}
}
