package main

// Golden-file test: the table bytes on stdout are pinned for a scaled-down
// campaign. The command runs its engine's default backend; engines forced
// to the other backends must print the same bytes (the backends are exact,
// so the rendered table cannot depend on the engine). Run with -update to
// regenerate testdata after an intentional change.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cycles"
	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenTable(t *testing.T) {
	args := []string{"-scale", "0.01", "-seed", "1", "-par", "2"}
	golden := filepath.Join("testdata", "table2-scale0.01.golden")
	for _, backend := range []cycles.Backend{cycles.BackendAuto, cycles.BackendKarp, cycles.BackendHoward} {
		t.Run(backend.String(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			var err error
			if backend == cycles.BackendAuto {
				err = run(context.Background(), args, &stdout, &stderr)
			} else {
				eng := engine.New(engine.Options{Workers: 2, Backend: backend})
				err = campaign(context.Background(), eng, 0.01, 1, &stdout, &stderr)
			}
			if err != nil {
				t.Fatalf("%v: %v\nstderr: %s", backend, err, stderr.String())
			}
			if *update && backend == cycles.BackendAuto {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/table2 -update` to create)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("backend %v: output differs from %s (rerun with -update after an intentional change)\ngot:\n%s",
					backend, golden, stdout.String())
			}
		})
	}
}
