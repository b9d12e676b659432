package model

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rat"
)

func TestInstanceJSONRoundTrip(t *testing.T) {
	orig := twoStage(t, [][]rat.Rat{{rat.New(8, 3), rat.FromInt(2)}})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumStages() != orig.NumStages() || back.PathCount() != orig.PathCount() {
		t.Fatalf("shape mismatch: %d stages, %d paths", back.NumStages(), back.PathCount())
	}
	for i := 0; i < orig.NumStages(); i++ {
		for a := 0; a < orig.Replication(i); a++ {
			if !back.CompTime(i, a).Equal(orig.CompTime(i, a)) {
				t.Fatalf("comp[%d][%d] mismatch", i, a)
			}
		}
	}
	if !back.CommTime(0, 0, 0).Equal(rat.New(8, 3)) {
		t.Fatalf("comm not exact: %v", back.CommTime(0, 0, 0))
	}
}

var badInstanceJSON = []string{
	`{"comp": [], "comm": []}`,                            // no stages
	`{"comp": [["1"],["2"]], "comm": []}`,                 // missing comm
	`{"comp": [["1"],["x"]], "comm": [[["1"]]]}`,          // bad rational
	`{"comp": [["1"],["2"]], "comm": [[["1","2"]]]}`,      // width mismatch
	`{"comp": [["1"],["2"]], "comm": [[["1/0"]]]}`,        // zero denominator
	`{"comp": [["-3"],["2"]], "comm": [[["1"]]]}`,         // negative time
	`{"comp": [["-9223372036854775808/-1"]], "comm": []}`, // 2^63: beyond int64
}

func TestInstanceJSONRejectsBad(t *testing.T) {
	for i, c := range badInstanceJSON {
		var inst Instance
		if err := json.Unmarshal([]byte(c), &inst); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestParseRat(t *testing.T) {
	cases := []struct {
		in   string
		want rat.Rat
	}{
		{"3", rat.FromInt(3)},
		{"3/4", rat.New(3, 4)},
		{" 10/5 ", rat.FromInt(2)},
		{"-7/2", rat.New(-7, 2)},
	}
	for _, c := range cases {
		got, err := ParseRat(c.in)
		if err != nil {
			t.Errorf("ParseRat(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseRat(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "a", "1/b", "1/0", "1/2/3", "-9223372036854775808/-1", "1/-9223372036854775808"} {
		if _, err := ParseRat(bad); err == nil {
			t.Errorf("ParseRat(%q) accepted", bad)
		}
	}
}

// TestPathCountOverflowIsError: replica-count vectors whose lcm exceeds
// int64 must fail construction (and therefore JSON decode) with an error —
// instances arrive over the wire, and rat.LCMAll's panic would otherwise
// escape through json.Unmarshal into the serving goroutine.
func TestPathCountOverflowIsError(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
	comp := make([][]rat.Rat, len(primes))
	for i, p := range primes {
		comp[i] = make([]rat.Rat, p)
		for a := range comp[i] {
			comp[i][a] = rat.One()
		}
	}
	comm := make([][][]rat.Rat, len(primes)-1)
	for i := range comm {
		comm[i] = make([][]rat.Rat, primes[i])
		for a := range comm[i] {
			comm[i][a] = make([]rat.Rat, primes[i+1])
			for b := range comm[i][a] {
				comm[i][a][b] = rat.One()
			}
		}
	}
	if _, err := FromTimes(comp, comm); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("FromTimes with lcm > int64 returned err %v, want overflow error", err)
	}
	// The same instance through the wire format: decode must error, not panic.
	blob, err := json.Marshal(map[string]any{"comp": ratStrings(comp), "comm": commStrings(comm)})
	if err != nil {
		t.Fatal(err)
	}
	var inst Instance
	if err := json.Unmarshal(blob, &inst); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("UnmarshalJSON with lcm > int64 returned err %v, want overflow error", err)
	}
}

func ratStrings(comp [][]rat.Rat) [][]string {
	out := make([][]string, len(comp))
	for i, row := range comp {
		out[i] = make([]string, len(row))
		for a, v := range row {
			out[i][a] = v.String()
		}
	}
	return out
}

func commStrings(comm [][][]rat.Rat) [][][]string {
	out := make([][][]string, len(comm))
	for i, mat := range comm {
		out[i] = ratStrings(mat)
	}
	return out
}

// FuzzInstanceJSON: decoding never panics, and any accepted input re-encodes
// to bytes that decode and re-encode to themselves.
func FuzzInstanceJSON(f *testing.F) {
	for _, s := range append([]string{
		`{"comp": [["8/3","2"],["1"]], "comm": [[["8/3"],["1"]]]}`,
		`{"comp":[["22"],["104","128"],["126","146","147"],["23"]],"comm":[[["186","192"]],[["57","68","77"],["13","157","165"]],[["67"],["73"],["73"]]]}`,
		`{"comp": [["1"]], "comm": []}`,
		`{"comp": [[" 10/5 "],["-7/-2"]], "comm": [[["0"]]]}`,
	}, badInstanceJSON...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Instance
		if in.UnmarshalJSON(data) != nil {
			return
		}
		enc, err := in.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", data, err)
		}
		var back Instance
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("accepted %q but rejects its encoding %s: %v", data, enc, err)
		}
		again, err := back.MarshalJSON()
		if err != nil || string(again) != string(enc) {
			t.Fatalf("encoding of %q is not a fixed point: %s then %s (%v)", data, enc, again, err)
		}
	})
}
