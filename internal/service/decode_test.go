package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/workload"
)

// serveFamily is the serving benchmark's instance family: 4 stages on 12
// processors with Table 2's 5-15 time ranges.
var serveFamily = workload.Spec{Stages: 4, Procs: 12, CompLo: 5, CompHi: 15, CommLo: 5, CommHi: 15, MaxPathCount: 2520}

// serveBodies returns one request body of each serving op kind, as a
// client's json.Marshal writes it: a by-ID hit, an inline strict miss and a
// registration.
func serveBodies(t testing.TB) (hit, miss, register []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(73))
	var insts [2]*model.Instance
	for i := range insts {
		inst, err := serveFamily.Instance(rng)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return marshal(EvaluateRequest{InstanceID: store.ContentID(insts[0]), Model: "overlap"}),
		marshal(EvaluateRequest{Instance: insts[0], Model: "strict"}),
		marshal(InstanceRequest{Instance: insts[1]})
}

// TestDecodeCanonicalAllocs: a serving body decodes on the one-pass path.
// The encoding/json path spends 139 and 115 allocations on these miss and
// registration bodies, the one-pass path 10 and 9.
func TestDecodeCanonicalAllocs(t *testing.T) {
	_, miss, register := serveBodies(t)
	const ceiling = 24
	rd := bytes.NewReader(nil)
	for _, c := range []struct {
		name string
		body []byte
		v    func() any
	}{
		{"evaluate", miss, func() any { return new(EvaluateRequest) }},
		{"register", register, func() any { return new(InstanceRequest) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(c.body)
			if err := DecodeStrict(rd, c.v()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > ceiling {
			t.Errorf("%s body: %.0f allocs per decode, want at most %d", c.name, allocs, ceiling)
		}
	}
}

// TestDecodeCanonicalSubset pins which request bodies take the one-pass
// path: the serving bodies do, repeated or case-folded keys do not.
func TestDecodeCanonicalSubset(t *testing.T) {
	hit, miss, register := serveBodies(t)
	inst := `{"comp":[["4"],["3"]],"comm":[[["2"]]]}`
	for _, c := range []struct {
		body string
		v    any
		want bool
	}{
		{string(hit), new(EvaluateRequest), true},
		{string(miss), new(EvaluateRequest), true},
		{string(register), new(InstanceRequest), true},
		{`{"latencyPeriods":3,"backend":"karp","model":"strict","instance":` + inst + `}`, new(EvaluateRequest), true},
		{`{"model":"overlap","model":"strict","instance":` + inst + `}`, new(EvaluateRequest), false},
		{`{"instance":` + inst + `,"instance":` + inst + `}`, new(InstanceRequest), false},
		{`{"Model":"overlap","instance":` + inst + `}`, new(EvaluateRequest), false},
		{`{"model":"overlap","instanceId":"abc","latencyPeriods":-1}`, new(EvaluateRequest), false},
		{string(register), new(SearchRequest), false},
	} {
		if got := decodeCanonical([]byte(c.body), c.v); got != c.want {
			t.Errorf("%s into %T: one-pass %v, want %v", c.body, c.v, got, c.want)
		}
	}
}

// TestDecodeTrailingData: only whitespace may follow the request value. A
// closing bracket after it used to pass, because json.Decoder.More reports
// false before one.
func TestDecodeTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	inst := `{"comp":[["4","4"],["3"]],"comm":[[["2"],["2"]]]}`
	eval := `{"model":"overlap","instance":` + inst + `}`
	reg := `{"instance":` + inst + `}`
	for _, c := range []struct{ path, body string }{
		{"/v1/evaluate", eval + "}"},
		{"/v1/evaluate", eval + "]"},
		{"/v1/evaluate", eval + " x"},
		{"/v1/instances", reg + "}"},
		{"/v1/instances", reg + " ]"},
	} {
		body, status := postRaw(t, ts.URL+c.path, []byte(c.body))
		var e struct {
			Error ErrorInfo `json:"error"`
		}
		_ = json.Unmarshal(body, &e)
		if status != http.StatusBadRequest || !strings.Contains(e.Error.Message, "trailing data") {
			t.Errorf("%s %s: status %d body %s, want 400 trailing data", c.path, c.body, status, body)
		}
	}
	for _, c := range []struct{ path, body string }{{"/v1/evaluate", eval + " \n"}, {"/v1/instances", reg + "\t"}} {
		if body, status := postRaw(t, ts.URL+c.path, []byte(c.body)); status != http.StatusOK {
			t.Errorf("%s %q: status %d body %s, want 200", c.path, c.body, status, body)
		}
	}
}

// TestDecodeLopsidedInstance: an instance whose comm lacks the ratios its
// comp rows promise — two stages of n replicas each in about 8n bytes, so
// n² links — gets FromTimes's 400 from both endpoints, and its decode
// allocates in proportion to the body, not to n².
func TestDecodeLopsidedInstance(t *testing.T) {
	const n = 2000
	row := "[" + strings.Repeat(`"1",`, n-1) + `"1"]`
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct{ comm, msg string }{
		{`[]`, "2 stages need 1 comm matrices, got 0"},
		{`[[["1"]]]`, "comm[0] has 1 sender rows, want 2000"},
	} {
		inst := `{"comp":[` + row + "," + row + `],"comm":` + c.comm + `}`
		for _, e := range []struct {
			path string
			body []byte
			v    func() any
		}{
			{"/v1/evaluate", []byte(`{"model":"overlap","instance":` + inst + `}`), func() any { return new(EvaluateRequest) }},
			{"/v1/instances", []byte(`{"instance":` + inst + `}`), func() any { return new(InstanceRequest) }},
		} {
			body, status := postRaw(t, ts.URL+e.path, e.body)
			if status != http.StatusBadRequest || !strings.Contains(string(body), c.msg) {
				t.Errorf("%s comm %s: status %d body %s, want 400 %q", e.path, c.comm, status, body, c.msg)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := UnmarshalStrict(e.body, e.v())
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("%s comm %s: decode error %v, want %q", e.path, c.comm, err, c.msg)
			}
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s comm %s: %d bytes allocated for a %d-byte body", e.path, c.comm, bytes, len(e.body))
			if limit := 64 * uint64(len(e.body)); bytes > limit {
				t.Errorf("%s comm %s: %d bytes allocated for a %d-byte body, want at most %d", e.path, c.comm, bytes, len(e.body), limit)
			}
		}
	}
}

// decodeSeeds are canonical and near-canonical request bodies: marshaled
// and indented forms, reordered and case-folded keys, null, repeated keys,
// number and string forms the one-pass path declines, and trailing data.
func decodeSeeds(t testing.TB) [][]byte {
	hit, miss, register := serveBodies(t)
	var indented bytes.Buffer
	if err := json.Indent(&indented, miss, "", "  "); err != nil {
		t.Fatal(err)
	}
	inst := `{"comp":[["4","8/3"],["3"]],"comm":[[["2"],["2"]]]}`
	seeds := [][]byte{hit, miss, register, indented.Bytes()}
	for _, s := range []string{
		`{"instance":` + inst + `,"model":"strict","backend":"howard","latencyPeriods":4}`,
		`{"latencyPeriods":0,"backend":"karp","model":"overlap","instance":{"comm":[[["2"],["2"]]],"comp":[["4","8/3"],["3"]]}}`,
		`{"Model":"overlap","instance":` + inst + `}`,
		`{"model":"overlap","Instance":` + inst + `}`,
		`{"model":"overlap","instance":{"Comp":[["4","4"],["3"]],"comm":[[["2"],["2"]]]}}`,
		`{"model":"overlap","instance":null}`,
		`{"model":"overlap","model":"strict","instance":` + inst + `}`,
		`{"instance":` + inst + `,"instance":` + inst + `}`,
		`{"model":"overlap","instance":{"comp":[["+5"],["3"]],"comm":[[["2"]]]}}`,
		`{"model":"overlap","instance":{"comp":[["007"],["3"]],"comm":[[["2"]]]}}`,
		`{"model":"overlap","instance":{"comp":[["-0"],["3"]],"comm":[[["2"]]]}}`,
		`{"model":"overlap","instance":{"comp":[["1234567890123456789"],["3"]],"comm":[[["2"]]]}}`,
		`{"model":"overlap","instance":{"comp":[["1/0"],["3"]],"comm":[[["2"]]]}}`,
		`{"model":"overlap","instanceId":"abc","latencyPeriods":007}`,
		`{"model":"overlap","instanceId":"abc","latencyPeriods":1e2}`,
		`{"model":"overlap","instanceId":"abc","latencyPeriods":-1}`,
		`{"model":"overlap","instance":` + inst + `}}`,
		`{"model":"overlap","instance":` + inst + `}]`,
		`{"instance":` + inst + `}}`,
		`{"pipeline":{"stages":[{"work":5}],"fileSizes":[]}}`,
		`{"model":"overlap","extra":1}`,
		``, `{`, `[]`, `null`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzDecodeRequest: for evaluate and registration bodies, UnmarshalStrict
// answers exactly what its encoding/json path alone answers — the same
// value, or the same status and message.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct{ got, want any }{
			{new(EvaluateRequest), new(EvaluateRequest)},
			{new(InstanceRequest), new(InstanceRequest)},
		} {
			gotErr, wantErr := UnmarshalStrict(data, c.got), decodeJSON(data, c.want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q into %T: got error %v, encoding/json alone %v", data, c.got, gotErr, wantErr)
			}
			if gotErr != nil {
				var g, w *HTTPError
				if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || *g != *w {
					t.Fatalf("%q into %T: got %#v, encoding/json alone %#v", data, c.got, gotErr, wantErr)
				}
				continue
			}
			g, err1 := json.Marshal(c.got)
			w, err2 := json.Marshal(c.want)
			if err1 != nil || err2 != nil || !bytes.Equal(g, w) || pathCount(c.got) != pathCount(c.want) {
				t.Fatalf("%q into %T: got %s, encoding/json alone %s (%v, %v)", data, c.got, g, w, err1, err2)
			}
		}
	})
}

func pathCount(v any) int64 {
	var inst *model.Instance
	switch r := v.(type) {
	case *EvaluateRequest:
		inst = r.Instance
	case *InstanceRequest:
		inst = r.Instance
	}
	if inst == nil {
		return 0
	}
	return inst.PathCount()
}

// BenchmarkDecodeRequest times DecodeStrict on each serving body kind.
func BenchmarkDecodeRequest(b *testing.B) {
	hit, miss, register := serveBodies(b)
	for _, c := range []struct {
		name string
		body []byte
		v    func() any
	}{
		{"hit", hit, func() any { return new(EvaluateRequest) }},
		{"miss", miss, func() any { return new(EvaluateRequest) }},
		{"register", register, func() any { return new(InstanceRequest) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rd := bytes.NewReader(nil)
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(c.body)
				if err := DecodeStrict(rd, c.v()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
