//go:build !race

// The race detector makes this test ~40 s on two CPUs and races nothing
// the parallel engine's own tests do not already exercise, so it runs in
// the plain `go test` pass only.

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nvrel/internal/parallel"
)

var updateRunAll = flag.Bool("update-runall", false, "rewrite testdata/runall from the current output")

// runAllGoldenCSV are the experiments pinned under `run -csv` as well; the
// sweeps print CSV there, the rest fall back to their text report.
var runAllGoldenCSV = []string{"fig3", "fig4a", "fig4b", "fig4c", "fig4d", "transient", "survival"}

// TestRunAllGolden pins the bytes of `nvrel run all` (every entry of
// nvrel.ExperimentNames, in order) and of `run -csv` for the sweeps against the
// files under testdata/runall, at one worker and at four: a refactor that
// keeps results identical moves nothing here. After a change that is
// meant to move printed values, regenerate with
//
//	go test ./cmd/nvrel -run TestRunAllGolden -update-runall
//
// and review the diff.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	type golden struct {
		file string
		args []string
	}
	cases := []golden{{"all.txt", []string{"run", "all"}}}
	for _, name := range runAllGoldenCSV {
		cases = append(cases, golden{name + ".csv", []string{"run", "-csv", name}})
	}
	dir := filepath.Join("testdata", "runall")
	if *updateRunAll {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			t.Cleanup(func() { parallel.SetWorkers(prev) })
			for _, c := range cases {
				out, err := capture(t, c.args...)
				if err != nil {
					t.Fatalf("%v: %v", c.args, err)
				}
				path := filepath.Join(dir, c.file)
				if *updateRunAll && workers == 1 {
					if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read golden (regenerate with -update-runall): %v", err)
				}
				if !bytes.Equal([]byte(out), want) {
					t.Errorf("%v differs from %s:\n%s", c.args, path, firstDiff(out, string(want)))
				}
			}
		})
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
