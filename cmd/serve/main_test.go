package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read stderr while run() writes it from another
// goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional args", []string{"-addr", ":0", "extra"}, "unexpected arguments"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", c.args, c.want)
			}
			if !strings.Contains(err.Error()+stderr.String(), c.want) {
				t.Fatalf("run(%v) error %q, want %q", c.args, err, c.want)
			}
		})
	}
}

var listenLine = regexp.MustCompile(`listening on ([^\s]+)`)

// TestServeLifecycle boots the real server on a free port, hits /healthz
// and /v1/evaluate over real HTTP, then cancels the context and expects a
// clean, logged shutdown — the end-to-end path of cmd/serve.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache-entries", "64"}, &stdout, stderr)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stderr: %s", stderr.String())
		}
		if m := listenLine.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Workers != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// One real evaluation, answered by the server's one engine.
	body := `{"model":"overlap","instance":{"comp":[["4","4"],["3"]],"comm":[[["2"],["2"]]]}}`
	resp, err = http.Post("http://"+addr+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	var eval struct {
		Period  string `json:"period"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eval); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || eval.Period == "" {
		t.Fatalf("evaluate: status %d, %+v", resp.StatusCode, eval)
	}
	if eval.Backend != "auto" {
		t.Fatalf("evaluate reports backend %q, want auto", eval.Backend)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Fatalf("no shutdown log; stderr: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout should stay clean, got %q", stdout.String())
	}
}
