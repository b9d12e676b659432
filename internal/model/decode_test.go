package model

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/jscan"
	"repro/internal/rat"
)

// randomInstance draws an instance of the given replica counts with times
// in [5, 15], some of them fractional.
func randomInstance(t testing.TB, rng *rand.Rand, reps []int) *Instance {
	t.Helper()
	val := func() rat.Rat { return rat.New(int64(5+rng.Intn(11))*int64(1+rng.Intn(3)), int64(1+rng.Intn(3))) }
	comp := make([][]rat.Rat, len(reps))
	comm := make([][][]rat.Rat, len(reps)-1)
	for i, k := range reps {
		comp[i] = make([]rat.Rat, k)
		for a := range comp[i] {
			comp[i][a] = val()
		}
		if i+1 < len(reps) {
			comm[i] = make([][]rat.Rat, k)
			for a := range comm[i] {
				comm[i][a] = make([]rat.Rat, reps[i+1])
				for b := range comm[i][a] {
					comm[i][a][b] = val()
				}
			}
		}
	}
	inst, err := FromTimes(comp, comm)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// readCanonical runs the one-pass reader alone on a whole input.
func readCanonical(data []byte) (*Instance, bool) {
	sc := jscan.New(data)
	var in Instance
	ok := in.ReadCanonical(&sc) && sc.End()
	return &in, ok
}

type instanceDoc struct {
	doc     []byte
	onePass bool
}

// instanceDocs are canonical and near-canonical instance documents, each
// marked with whether the one-pass reader takes it: the forms MarshalJSON
// and MarshalIndent write, with the keys in either order, and digit strings
// ParseRat reads the same way. Everything else is declined, whether
// encoding/json accepts it or not.
func instanceDocs(t testing.TB) []instanceDoc {
	inst := randomInstance(t, rand.New(rand.NewSource(5)), []int{3, 1, 4, 2})
	marshaled, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(inst, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	docs := []instanceDoc{{marshaled, true}, {indented, true}}
	for _, s := range []string{
		`{"comp":[["8/3","2"],["1"]],"comm":[[["8/3"],["1"]]]}`,
		`{"comm":[[["8/3"],["1"]]],"comp":[["8/3","2"],["1"]]}`,
		`{"comp":[["1"]],"comm":[]}`,
		`{"comp":[["007"]],"comm":[]}`,
		`{"comp":[["123456789012345678/123456789012345679"]],"comm":[]}`,
	} {
		docs = append(docs, instanceDoc{[]byte(s), true})
	}
	for _, s := range append([]string{
		`{"Comp":[["8/3","2"],["1"]],"comm":[[["8/3"],["1"]]]}`,
		`{"comp":null,"comm":[]}`,
		`{"comp":[["1"]],"comm":[],"comp":[["2"]]}`,
		`{"comp":[["1"]],"comm":[],"comm":[]}`,
		`{"comp":[["+5"]],"comm":[]}`,
		`{"comp":[["-0"]],"comm":[]}`,
		`{"comp":[["1234567890123456789"]],"comm":[]}`,
		`{"comp":[["1/0"]],"comm":[]}`,
		`{"comp":[[" 1"]],"comm":[]}`,
		`{"comp":[["1"]],"comm":[]}}`,
		`{"comp":[["1"]],"comm":[]}]`,
		`{"comp":[["1"]]}`,
		`{"comp":[["1"],[]],"comm":[[]]}`,
		`{"comp":[["1"],["2"]],"comm":[[["1"],["2"]]]}`,
		`{"comp":[["1"],["2"]],"comm":[[["1"]],[["2"]]]}`,
		`{"comp":[["1"]],"comm":[], "extra":1}`,
	}, badInstanceJSON...) {
		docs = append(docs, instanceDoc{[]byte(s), false})
	}
	return docs
}

// FuzzInstanceDecode: on any input the one-pass reader either declines or
// decodes exactly what the encoding/json path decodes.
func FuzzInstanceDecode(f *testing.F) {
	for _, d := range instanceDocs(f) {
		f.Add(d.doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := readCanonical(data)
		if !ok {
			return
		}
		want, err := decodeTimes(data)
		if err != nil {
			t.Fatalf("one-pass reader accepted %q, encoding/json path rejects it: %v", data, err)
		}
		g, err1 := got.MarshalJSON()
		w, err2 := want.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(g, w) || got.PathCount() != want.PathCount() {
			t.Fatalf("%q: one-pass %s (%d paths), encoding/json path %s (%d paths)", data, g, got.PathCount(), w, want.PathCount())
		}
		for i := 0; i < want.NumStages(); i++ {
			for a := 0; a < want.Replication(i); a++ {
				if got.ProcID(i, a) != want.ProcID(i, a) {
					t.Fatalf("%q: replica (%d,%d) on P%d, want P%d", data, i, a, got.ProcID(i, a), want.ProcID(i, a))
				}
			}
		}
	})
}

// TestReadCanonicalSubset pins which documents take the one-pass path.
func TestReadCanonicalSubset(t *testing.T) {
	for _, d := range instanceDocs(t) {
		if _, ok := readCanonical(d.doc); ok != d.onePass {
			t.Errorf("%s: one-pass %v, want %v", d.doc, ok, d.onePass)
		}
	}
}

// TestCanonicalRowsCarved: a decoded instance's rows have no spare
// capacity and sit end to end in one backing array per element type, as
// FromMapped carves them — so a decoded instance holds no more memory than
// its values need.
func TestCanonicalRowsCarved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, reps := range [][]int{{1}, {2, 3}, {3, 1, 4, 2}, {4, 3, 3, 2}} {
		data, err := json.Marshal(randomInstance(t, rng, reps))
		if err != nil {
			t.Fatal(err)
		}
		in, ok := readCanonical(data)
		if !ok {
			t.Fatalf("%s declined", data)
		}
		var times [][]rat.Rat
		times = append(times, in.comp...)
		for _, mat := range in.comm {
			times = append(times, mat...)
		}
		assertCarved(t, "times", times)
		assertCarved(t, "ints", append([][]int{in.m}, in.proc...))
		assertCarved(t, "rows", append([][][]rat.Rat{in.comp}, in.comm...))
	}
}

// assertCarved checks that each row has cap == len and starts where the
// previous one ends.
func assertCarved[E any](t *testing.T, what string, rows [][]E) {
	t.Helper()
	var end uintptr
	for k, row := range rows {
		if cap(row) != len(row) || len(row) == 0 {
			t.Fatalf("%s row %d: len %d cap %d", what, k, len(row), cap(row))
		}
		start := uintptr(unsafe.Pointer(&row[0]))
		if k > 0 && start != end {
			t.Fatalf("%s row %d does not follow row %d in one backing array", what, k, k-1)
		}
		end = start + uintptr(len(row))*unsafe.Sizeof(row[0])
	}
}

// lopsidedDoc is a two-stage document with n replicas per stage whose comm
// holds the given matrices: about 8n bytes that promise n² links.
func lopsidedDoc(n int, comm string) []byte {
	row := "[" + strings.Repeat(`"1",`, n-1) + `"1"]`
	return []byte(`{"comp":[` + row + "," + row + `],"comm":` + comm + "}")
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCanonicalAllocBoundedByInput: a document whose comm does not hold
// the ratios its comp shape implies is declined before anything is sized
// from that shape, so the decode allocates in proportion to its input and
// fails with FromTimes's message. Sizing from comp alone would allocate
// 24·n² bytes here, about 96 MB.
func TestCanonicalAllocBoundedByInput(t *testing.T) {
	const n = 2000
	for _, c := range []struct{ comm, msg string }{
		{`[]`, "2 stages need 1 comm matrices, got 0"},
		{`[[["1"]]]`, "comm[0] has 1 sender rows, want 2000"},
		{`[[["1"]],[["1"]]]`, "2 stages need 1 comm matrices, got 2"},
	} {
		doc := lopsidedDoc(n, c.comm)
		if _, ok := readCanonical(doc); ok {
			t.Fatalf("comm %s: one-pass reader accepted a lopsided document", c.comm)
		}
		var err error
		bytes := allocated(func() {
			var in Instance
			err = in.UnmarshalJSON(doc)
		})
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("comm %s: error %v, want %q", c.comm, err, c.msg)
		}
		t.Logf("comm %s: %d bytes allocated for a %d-byte document", c.comm, bytes, len(doc))
		if limit := 64 * uint64(len(doc)); bytes > limit {
			t.Errorf("comm %s: %d bytes allocated for a %d-byte document, want at most %d", c.comm, bytes, len(doc), limit)
		}
	}
}
