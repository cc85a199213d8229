package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report")

// TestAllExperimentsRun executes every experiment end to end; each one
// internally cross-checks its claims and returns an error on any
// discrepancy with the paper.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID) {
			t.Errorf("RunAll output missing %s", e.ID)
		}
	}
}

// TestRunAllGolden pins the whole report byte for byte, the netsim
// tables of E18 included. Every experiment is deterministic, so the
// report is the same at any GOMAXPROCS. If a change alters it on
// purpose, regenerate with
//
//	go test ./internal/experiments -run RunAllGolden -update
func TestRunAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden report (run with -update to create it): %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("report drifted from %s at line %d:\n got  %q\n want %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report drifted from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}

func TestFind(t *testing.T) {
	if _, ok := Find("E04"); !ok {
		t.Error("E04 not found")
	}
	if _, ok := Find("E99"); ok {
		t.Error("E99 found")
	}
}

// TestExpectedContent spot-checks that headline numbers from the paper
// appear in the generated tables.
func TestExpectedContent(t *testing.T) {
	checks := map[string][]string{
		"E01": {"torus (Lemma 5) = 2, mesh (Lemma 6) = 4"},
		"E02": {"δm=2 δt=1", "δm=3 δt=2"},
		"E03": {"P = 4, P' = 1"},
		"E05": {"1 (Theorem 13)", "1 (Theorem 24)"},
		"E09": {"((6),(3,2,2)) gives 2; even-first ((2,3),(6,2)) gives 1"},
		"E12": {"dilation 3"},
		"E17": {"7/8"},
	}
	for id, wants := range checks {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s output missing %q", id, want)
			}
		}
	}
}

// BenchmarkHook keeps io.Discard referenced for the root bench harness.
var _ = io.Discard
