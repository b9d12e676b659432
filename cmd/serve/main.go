// Command serve runs the batched-evaluation HTTP service: the full solver
// surface — /v1/evaluate, /v1/batch, /v1/search, /v1/sweep — plus /healthz
// and /metrics, behind a bounded memo cache and an in-flight worker budget.
// Ctrl-C (or SIGTERM from an orchestrator) drains in-flight requests and
// exits cleanly.
//
// Usage:
//
//	serve [-addr :8080] [-workers 0] [-cache-entries 0] [-inflight 0]
//	      [-timeout 60s] [-maxrows 0]
//	      [-store-entries 0] [-respmemo-entries 0]
//	      [-job-entries 0] [-job-active 0] [-job-timeout 0]
//	      [-checkpoint-dir DIR] [-checkpoint-interval 2s]
//
// -workers sizes the engine's worker pool (0 = GOMAXPROCS).
// -cache-entries bounds the engine's memo cache (0 = default 32768,
// negative disables memoization). -inflight caps concurrent solve requests
// (0 = 2x workers).
// -store-entries bounds the content-addressed instance store behind
// POST /v1/instances (0 = default 4096). -respmemo-entries bounds the
// encoded-response memo that serves repeat evaluate hits without touching
// a solver or encoder (0 = default 8192, negative disables). -job-entries
// bounds retained terminal async jobs (0 = default 1024), -job-active caps
// concurrently running async jobs (0 = default 256) and -job-timeout sets
// the per-job wall-clock ceiling (0 = default 15m). -checkpoint-dir makes
// async jobs durable: every submission, per-root search progress and final
// result persists there (atomic write-rename), and on restart the server
// rehydrates finished jobs and resumes interrupted ones before listening —
// a resumed deterministic search re-executes only its unfinished subtree
// roots and answers byte-identically. -checkpoint-interval batches the
// per-root writes (0 = write every finished root).
//
// Example:
//
//	serve -addr :8080 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/evaluate -d '{
//	  "model": "strict",
//	  "instance": {"comp": [["4","4"], ["3"]],
//	               "comm": [[["2"], ["2"]]]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed
		}
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is canceled. The "listening on"
// line goes to stderr (stdout stays clean for tooling that wraps the
// server), so tests can bind ":0" and discover the port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 0, "engine memo-cache bound (0 = default, negative disables)")
	inflight := fs.Int("inflight", 0, "max concurrent solve requests (0 = 2x workers)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request wall-clock ceiling")
	maxRows := fs.Int("maxrows", 0, "unfolded-TPN row cap of the pooled solvers (0 = package default)")
	storeEntries := fs.Int("store-entries", 0, "instance-store bound for POST /v1/instances (0 = default 4096)")
	respEntries := fs.Int("respmemo-entries", 0, "encoded-response memo bound (0 = default 8192, negative disables)")
	jobEntries := fs.Int("job-entries", 0, "terminal-job retention bound for /v1/jobs (0 = default 1024)")
	jobActive := fs.Int("job-active", 0, "max concurrently active async jobs (0 = default 256)")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock ceiling per async job (0 = default 15m)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for durable job checkpoints (empty disables; restart resumes interrupted jobs)")
	ckptInterval := fs.Duration("checkpoint-interval", 2*time.Second, "min delay between per-root checkpoint writes of a running search (0 = write every root)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	opts := service.Options{
		Workers:            *workers,
		CacheEntries:       *cacheEntries,
		MaxRows:            *maxRows,
		MaxInFlight:        *inflight,
		RequestTimeout:     *timeout,
		StoreEntries:       *storeEntries,
		RespCacheEntries:   *respEntries,
		JobEntries:         *jobEntries,
		JobActive:          *jobActive,
		JobTimeout:         *jobTimeout,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	if err := service.Serve(ctx, *addr, opts, logf); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "shutdown complete")
	return nil
}
