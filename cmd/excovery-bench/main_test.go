package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pinClock fixes the -changes date stamp for golden comparisons.
func pinClock(t *testing.T) {
	t.Helper()
	saved := now
	now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	t.Cleanup(func() { now = saved })
}

// writeBench writes a minimal plain-text benchmark recording — the parser
// accepts both test2json streams and raw `go test -bench` output.
func writeBench(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseBench = "goos: linux\n" +
	"BenchmarkFig3FullWorkflow \t     170\t  14144909 ns/op\t 1583934 B/op\t    6000 allocs/op\n" +
	"BenchmarkFig11OneShot     \t    2968\t   1895636 ns/op\t         0.9815 R\t        92.07 t_R_ms\t   97719 B/op\t     726 allocs/op\n"

const newBench = "goos: linux\n" +
	"BenchmarkFig3FullWorkflow \t     170\t  14000000 ns/op\t 1600000 B/op\t    6127 allocs/op\n" +
	"BenchmarkFig11OneShot     \t    2968\t   1900000 ns/op\t         0.9800 R\t        92.50 t_R_ms\t   98000 B/op\t     727 allocs/op\n"

// regressedBench injects a >10% allocs/op regression on the Fig. 3
// workflow (6000 → 7000 = +16.7%) — the ISSUE's gate acceptance fixture.
const regressedBench = "BenchmarkFig3FullWorkflow \t     150\t  14500000 ns/op\t 1583934 B/op\t    7000 allocs/op\n" +
	"BenchmarkFig11OneShot     \t    2968\t   1895636 ns/op\t         0.9815 R\t        92.07 t_R_ms\t   97719 B/op\t     726 allocs/op\n"

// TestParseRealRecording parses the repo's committed benchmark recording:
// every benchmark line must survive the split-event reassembly, including
// the custom R / t_R_ms / t_R_p90_ms ReportMetric units.
func TestParseRealRecording(t *testing.T) {
	real := filepath.Join("..", "..", "BENCH_20260805.json")
	if _, err := os.Stat(real); err != nil {
		t.Skip("no BENCH_20260805.json in repo root")
	}
	s, err := parseFile(real)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.order) < 30 {
		t.Fatalf("parsed only %d benchmarks, want the full recording (≥30)", len(s.order))
	}
	fig3 := s.bench["BenchmarkFig3FullWorkflow"]
	if fig3 == nil || fig3["allocs/op"] != 6127 {
		t.Fatalf("Fig. 3 allocs/op = %v, want 6127", fig3)
	}
	oneShot := s.bench["BenchmarkFig11OneShot"]
	if oneShot["R"] != 0.9815 || oneShot["t_R_ms"] != 92.07 || oneShot["t_R_p90_ms"] != 114.2 {
		t.Fatalf("Fig. 11 custom metrics = %v", oneShot)
	}
	for _, name := range s.order {
		if s.bench[name]["ns/op"] == 0 {
			t.Errorf("%s has no ns/op", name)
		}
	}
	// Subtests with slashes and name/metrics splits both land.
	if s.bench["BenchmarkExpDArchitectureUnderLoad/three-party/load=400"]["allocs/op"] != 123544 {
		t.Error("split-line subtest benchmark not reassembled")
	}
}

// TestChangesNote locks the CHANGES.md one-liner byte-for-byte, and pins
// the newest-prior baseline selection (the shell script it replaces
// compared against the oldest recording).
func TestChangesNote(t *testing.T) {
	pinClock(t)
	dir := t.TempDir()
	writeBench(t, dir, "BENCH_20260101.json",
		"BenchmarkFig3FullWorkflow \t 100\t 99 ns/op\t 9 B/op\t 9999 allocs/op\n")
	writeBench(t, dir, "BENCH_20260601.json", baseBench)
	newPath := writeBench(t, dir, "BENCH_20260808.json", newBench)

	var out, errb bytes.Buffer
	if code := run([]string{"-changes", newPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := "- bench 2026-08-08 (BENCH_20260808.json): Fig. 3 full workflow 6000 -> 6127 allocs/op (+2.1% vs BENCH_20260601.json).\n"
	if out.String() != want {
		t.Errorf("changes note:\n got %q\nwant %q", out.String(), want)
	}
}

// TestChangesNoteNoBaseline covers the first-recording case.
func TestChangesNoteNoBaseline(t *testing.T) {
	pinClock(t)
	dir := t.TempDir()
	newPath := writeBench(t, dir, "BENCH_20260808.json", newBench)
	var out bytes.Buffer
	if code := run([]string{"-changes", newPath}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	want := "- bench 2026-08-08 (BENCH_20260808.json): Fig. 3 full workflow at 6127 allocs/op (no prior BENCH_*.json to compare against).\n"
	if out.String() != want {
		t.Errorf("changes note:\n got %q\nwant %q", out.String(), want)
	}
}

// gatedLines returns one zero-alloc result line for every benchmark the
// thresholds file names individually, except those already in fixture, so
// gate fixtures carry every benchmark the gate insists on.
func gatedLines(t *testing.T, thPath, fixture string) string {
	t.Helper()
	th, err := loadThresholds(thPath)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for name := range th.Benchmarks {
		if !strings.Contains(fixture, name+" ") {
			sb.WriteString(name + " \t 100\t 1000 ns/op\t 0 B/op\t 0 allocs/op\n")
		}
	}
	return sb.String()
}

// TestCheckGate exercises the regression gate against the checked-in
// thresholds: a mild drift passes, the injected >10% allocs/op regression
// exits non-zero and names the offender, and so does a recording that
// lacks a benchmark the thresholds gate individually.
func TestCheckGate(t *testing.T) {
	dir := t.TempDir()
	thPath := filepath.Join("..", "..", "bench-thresholds.json")
	gated := gatedLines(t, thPath, baseBench)
	basePath := writeBench(t, dir, "BENCH_20260601.json", baseBench+gated)
	okPath := writeBench(t, dir, "ok.json", newBench+gated)
	badPath := writeBench(t, dir, "bad.json", regressedBench+gated)
	const dropped = "BenchmarkEmulatorDeliverySteadyState"
	var kept []string
	for _, line := range strings.SplitAfter(newBench+gated, "\n") {
		if !strings.HasPrefix(line, dropped+" ") {
			kept = append(kept, line)
		}
	}
	missingPath := writeBench(t, dir, "missing.json", strings.Join(kept, ""))

	var out bytes.Buffer
	if code := run([]string{"-check", thPath, okPath, basePath}, &out, &out); code != 0 {
		t.Fatalf("mild drift gated: exit %d\n%s", code, out.String())
	}
	out.Reset()
	code := run([]string{"-check", thPath, badPath, basePath}, &out, &out)
	if code != 2 {
		t.Fatalf("injected +16.7%% allocs/op regression passed the gate: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkFig3FullWorkflow allocs/op: 6000 -> 7000") {
		t.Errorf("breach not reported:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-check", thPath, missingPath, basePath}, &out, &out); code != 2 {
		t.Fatalf("recording without gated %s passed the gate: exit %d\n%s", dropped, code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING "+dropped) {
		t.Errorf("missing benchmark not reported:\n%s", out.String())
	}
}

// TestParseRepeatsTakeMedian checks that -count repeats of one benchmark
// reduce to the per-unit median rather than the last run.
func TestParseRepeatsTakeMedian(t *testing.T) {
	const repeats = "BenchmarkX-8 \t 100\t 300 ns/op\t 7 allocs/op\n" +
		"BenchmarkX-8 \t 100\t 200 ns/op\t 8 allocs/op\n" +
		"BenchmarkX-8 \t 100\t 100 ns/op\t 9 allocs/op\n" +
		"BenchmarkY-8 \t 100\t 10 ns/op\n" +
		"BenchmarkY-8 \t 100\t 30 ns/op\n"
	s, err := parseStream(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.order) != 2 {
		t.Fatalf("order = %v, want one entry per name", s.order)
	}
	if x := s.bench["BenchmarkX"]; x["ns/op"] != 200 || x["allocs/op"] != 8 {
		t.Errorf("BenchmarkX = %v, want the median 200 ns/op, 8 allocs/op, not the last run's 100/9", x)
	}
	if y := s.bench["BenchmarkY"]; y["ns/op"] != 20 {
		t.Errorf("BenchmarkY = %v, want 20 ns/op (mean of the middle two)", y)
	}
}

// TestDeltaTable smoke-checks the two-file comparison output.
func TestDeltaTable(t *testing.T) {
	dir := t.TempDir()
	basePath := writeBench(t, dir, "BENCH_20260601.json", baseBench)
	newPath := writeBench(t, dir, "new.json", newBench)
	var out bytes.Buffer
	if code := run([]string{newPath, basePath}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	for _, want := range []string{
		"BenchmarkFig3FullWorkflow",
		"allocs/op",
		"+2.1%",  // 6000 → 6127
		"t_R_ms", // custom units compare too
		"-1.0%",  // ns/op 14144909 → 14000000
		"-0.2%",  // R 0.9815 → 0.98
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("delta table missing %q:\n%s", want, out.String())
		}
	}
}

// TestListingSingleFile smoke-checks the one-file listing mode.
func TestListingSingleFile(t *testing.T) {
	dir := t.TempDir()
	newPath := writeBench(t, dir, "new.json", newBench)
	var out bytes.Buffer
	if code := run([]string{newPath}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkFig11OneShot") ||
		!strings.Contains(out.String(), "0.98 R") {
		t.Errorf("listing:\n%s", out.String())
	}
}
