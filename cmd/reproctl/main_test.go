package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/service"
)

func startServer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(service.Options{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// ctl runs one reproctl invocation and returns stdout.
func ctl(t *testing.T, url string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	all := append([]string{"-url", url}, args...)
	if err := run(context.Background(), all, &stdout, &stderr); err != nil {
		t.Fatalf("reproctl %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// ctlErr runs one reproctl invocation that must fail and returns the error.
func ctlErr(t *testing.T, args ...string) error {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	if err == nil {
		t.Fatalf("reproctl %v: expected an error, got stdout %q", args, stdout.String())
	}
	return err
}

func searchBody(t *testing.T, algo string, seed int64) []byte {
	t.Helper()
	pipe, err := pipeline.New([]int64{100, 200, 100}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(service.SearchRequest{
		Pipeline: pipe, Platform: platform.Uniform(5, 100, 100),
		Model: "overlap", Algo: algo, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReproctlUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"jobs"}, "-url is required"},
		{[]string{"-url", "http://x"}, "missing command"},
		{[]string{"-url", "http://x", "teleport"}, "unknown command"},
		{[]string{"-url", "http://x", "job"}, "usage: reproctl job [-follow] [-interval 500ms] <id>"},
		{[]string{"-url", "http://x", "job", "-follow", "-interval", "-1s", "x-1"}, "-interval must be positive"},
		{[]string{"-url", "http://x", "result", "a", "b"}, "usage: reproctl result <id>"},
		{[]string{"-url", "http://x", "cancel"}, "usage: reproctl cancel <id>"},
	}
	for _, c := range cases {
		if err := ctlErr(t, c.args...); !strings.Contains(err.Error(), c.want) {
			t.Fatalf("args %v: error %v, want containing %q", c.args, err, c.want)
		}
	}
}

// TestReproctlJobLifecycle drives the whole admin surface against one
// server: a synchronous search leaves a terminal job behind, which the CLI
// lists, inspects and fetches — the result command printing exactly the
// bytes the synchronous endpoint answered.
func TestReproctlJobLifecycle(t *testing.T) {
	url := startServer(t)
	body := searchBody(t, "greedy", 1)
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	syncBytes, status := readAll(t, resp)
	if status != http.StatusOK {
		t.Fatalf("sync search: status %d body %s", status, syncBytes)
	}

	table := ctl(t, url, "jobs")
	if !strings.Contains(table, "search-1") || !strings.Contains(table, "done") || !strings.Contains(table, "1 job(s)") {
		t.Fatalf("jobs table:\n%s", table)
	}
	if filtered := ctl(t, url, "jobs", "-kind", "sweep"); !strings.Contains(filtered, "0 job(s)") {
		t.Fatalf("kind filter leaked:\n%s", filtered)
	}

	one := ctl(t, url, "job", "search-1")
	if !strings.Contains(one, `"state": "done"`) || !strings.Contains(one, `"kind": "search"`) {
		t.Fatalf("job output:\n%s", one)
	}

	if got := ctl(t, url, "result", "search-1"); got != string(syncBytes) {
		t.Fatalf("result bytes differ from the synchronous answer:\n%q\nvs\n%q", got, syncBytes)
	}

	if err := ctlErr(t, "-url", url, "result", "nope-9"); !strings.Contains(err.Error(), "unknown_job") {
		t.Fatalf("unknown job error = %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, int) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// TestReproctlCancelAndDrain submits a deliberately huge exact search
// asynchronously, cancels it via drain, and checks the job lands in the
// canceled state with drain reporting the count.
func TestReproctlCancelAndDrain(t *testing.T) {
	url := startServer(t)
	// 56 processors of two speeds: a uniform platform is too symmetric, the
	// exact search would prove its warm start within milliseconds.
	sub, err := json.Marshal(service.JobSubmitRequest{Kind: "search", Search: &service.SearchRequest{
		Pipeline: fixture.Pipeline(14), Platform: fixture.TwoSpeedPlatform(56),
		Model: "overlap", Algo: "bnb",
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(sub))
	if err != nil {
		t.Fatal(err)
	}
	body, status := readAll(t, resp)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", status, body)
	}
	var j service.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}

	out := ctl(t, url, "drain", "-wait", "30s")
	if !strings.Contains(out, "1 job(s) canceled, none active") {
		t.Fatalf("drain output %q", out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		one := ctl(t, url, "job", j.ID)
		if strings.Contains(one, `"state": "canceled"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached canceled:\n%s", one)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Draining an idle server is a no-op that still succeeds.
	if out := ctl(t, url, "drain"); !strings.Contains(out, "0 job(s) canceled") {
		t.Fatalf("idle drain output %q", out)
	}
}

// TestReproctlJobFollow drives the -follow loop over a real async search:
// the command must stream at least one status line, stop on the terminal
// state, and print the terminal document. A failed job (budget expiry)
// must make the command return an error — the nonzero exit scripts gate on.
func TestReproctlJobFollow(t *testing.T) {
	url := startServer(t)
	pipe := fixture.Pipeline(8)
	submit := func(base string) service.Job {
		t.Helper()
		sub, err := json.Marshal(service.JobSubmitRequest{Kind: "search", Search: &service.SearchRequest{
			Pipeline: pipe, Platform: platform.Uniform(16, 100, 100),
			Model: "overlap", Algo: "bnb",
		}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(sub))
		if err != nil {
			t.Fatal(err)
		}
		body, status := readAll(t, resp)
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d body %s", status, body)
		}
		var j service.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		return j
	}

	j := submit(url)
	out := ctl(t, url, "job", "-follow", "-interval", "5ms", j.ID)
	if !strings.Contains(out, j.ID) || !strings.Contains(out, `"state": "done"`) {
		t.Fatalf("follow output:\n%s", out)
	}

	// A server whose per-job ceiling is one nanosecond fails every detached
	// job before its solve starts: -follow must propagate the failure as an
	// error — the nonzero exit scripts gate on.
	tsf := httptest.NewServer(service.NewServer(service.Options{Workers: 2, JobTimeout: time.Nanosecond}).Handler())
	t.Cleanup(tsf.Close)
	jf := submit(tsf.URL)
	err := ctlErr(t, "-url", tsf.URL, "job", "-follow", "-interval", "5ms", jf.ID)
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("follow of failed job: error %v, want mention of failure", err)
	}
}

func TestReproctlSnapshots(t *testing.T) {
	url := startServer(t)
	health := ctl(t, url, "health")
	if !strings.Contains(health, `"ok"`) {
		t.Fatalf("health output %q", health)
	}
	metrics := ctl(t, url, "metrics")
	if !strings.Contains(metrics, "jobs") {
		t.Fatalf("metrics output misses the jobs block:\n%s", metrics)
	}
}
