package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrajectory marshals a File fixture into dir and returns its path.
func writeTrajectory(t *testing.T, dir, name string, f File) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ratioRow(name string, ratio float64) Result {
	return Result{Name: name, Iterations: 1, Metrics: map[string]float64{"ratio": ratio, "ns/op": 1000}}
}

// TestGatePassesWithinThreshold: small drift under both bounds passes, and
// the summary names the worst row so the CI log shows the trajectory.
func TestGatePassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{NumCPU: 1, Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
		ratioRow("BenchmarkStressOverhead/alloc/p1/s1", 1.05),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{NumCPU: 1, Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 33.0), // +10%, under +50%
		ratioRow("BenchmarkStressOverhead/alloc/p1/s1", 1.90), // +81% but within +1.0 slack
	}})
	var out bytes.Buffer
	if err := gateFiles(&out, base, cur, "ratio", 50, 1.0, ""); err != nil {
		t.Fatalf("gate failed on in-threshold drift: %v", err)
	}
	if !strings.Contains(out.String(), "2 ratio rows within") {
		t.Errorf("summary missing compared count: %q", out.String())
	}
	if !strings.Contains(out.String(), "alloc/p1/s1") {
		t.Errorf("summary does not name the worst row: %q", out.String())
	}
}

// TestGateFailsOnRegression: a row past BOTH the relative and absolute
// bound must fail the gate and be named in the error.
func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
		ratioRow("BenchmarkStressOverhead/fanout/p1/s1", 2.0),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 50.0), // +67% and +20 absolute
		ratioRow("BenchmarkStressOverhead/fanout/p1/s1", 2.1),
	}})
	err := gateFiles(&bytes.Buffer{}, base, cur, "ratio", 50, 1.0, "")
	if err == nil {
		t.Fatal("gate passed a +67%/+20-absolute regression")
	}
	if !strings.Contains(err.Error(), "storm/p1/s1") {
		t.Errorf("gate error does not name the offending metric: %v", err)
	}
}

// TestGateImprovementAlwaysPasses: getting faster is never a failure, even
// a large swing downward.
func TestGateImprovementAlwaysPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 3.0),
	}})
	if err := gateFiles(&bytes.Buffer{}, base, cur, "ratio", 50, 1.0, ""); err != nil {
		t.Fatalf("gate failed an improvement: %v", err)
	}
}

// TestGateSkipsRowsMissingFromBaseline: a current row the baseline host
// never measured (e.g. s8 rows recorded on a single-core box) is skipped
// with a note, not failed — but the remaining overlap is still gated.
func TestGateSkipsRowsMissingFromBaseline(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{NumCPU: 1, Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{NumCPU: 8, Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 31.0),
		ratioRow("BenchmarkStressOverhead/storm/p1/s8", 12.0),
	}})
	var out bytes.Buffer
	if err := gateFiles(&out, base, cur, "ratio", 50, 1.0, ""); err != nil {
		t.Fatalf("gate failed on a baseline-missing row: %v", err)
	}
	if !strings.Contains(out.String(), "storm/p1/s8 not in baseline") {
		t.Errorf("missing-row skip not noted: %q", out.String())
	}
	if !strings.Contains(out.String(), "1 skipped") {
		t.Errorf("summary missing skip count: %q", out.String())
	}
}

// TestGateRefusesEmptyOverlap: if renames (or a wrong -prefix) leave zero
// comparable rows, the gate must fail rather than silently pass.
func TestGateRefusesEmptyOverlap(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkOld/storm/p1/s1", 30.0),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
	}})
	err := gateFiles(&bytes.Buffer{}, base, cur, "ratio", 50, 1.0, "")
	if err == nil || !strings.Contains(err.Error(), "no longer overlap") {
		t.Fatalf("gate did not refuse an empty overlap: %v", err)
	}
	// Same refusal when a prefix filters everything out.
	err = gateFiles(&bytes.Buffer{}, base, cur, "ratio", 50, 1.0, "BenchmarkNope")
	if err == nil {
		t.Fatal("gate passed with a prefix matching nothing")
	}
}

// TestGatePrefixRestrictsRows: -prefix confines the gate to one family so
// unrelated trajectories in the same file cannot trip it.
func TestGatePrefixRestrictsRows(t *testing.T) {
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 30.0),
		ratioRow("BenchmarkOther/thing", 1.0),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 31.0),
		ratioRow("BenchmarkOther/thing", 500.0), // would fail if gated
	}})
	if err := gateFiles(&bytes.Buffer{}, base, cur, "ratio", 50, 1.0, "BenchmarkStressOverhead/"); err != nil {
		t.Fatalf("prefix did not confine the gate: %v", err)
	}
}

// TestParseFoldsRepeatsToMedian: a sweep run three times yields one row
// per name holding each metric's median, in first-seen order, and a row
// seen once passes through unchanged.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	in := `goos: linux
BenchmarkStressOverhead/fanout/p1/s1 7 900 ns/op 19.9 ratio
BenchmarkStressOverhead/fanout/native 7 45 ns/op
BenchmarkStressOverhead/fanout/p1/s1 9 1500 ns/op 35.4 ratio
BenchmarkOnce 3 10 ns/op
BenchmarkStressOverhead/fanout/native 7 47 ns/op
BenchmarkStressOverhead/fanout/p1/s1 8 1000 ns/op 21.0 ratio
BenchmarkStressOverhead/fanout/native 5 44 ns/op
`
	f, err := parseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkStressOverhead/fanout/p1/s1", Iterations: 8, Metrics: map[string]float64{"ns/op": 1000, "ratio": 21.0}},
		{Name: "BenchmarkStressOverhead/fanout/native", Iterations: 7, Metrics: map[string]float64{"ns/op": 45}},
		{Name: "BenchmarkOnce", Iterations: 3, Metrics: map[string]float64{"ns/op": 10}},
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(f.Benchmarks), len(want), f.Benchmarks)
	}
	for i, w := range want {
		g := f.Benchmarks[i]
		if g.Name != w.Name || g.Iterations != w.Iterations || len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("row %d = %+v, want %+v", i, g, w)
		}
		for unit, v := range w.Metrics {
			if g.Metrics[unit] != v {
				t.Errorf("row %d %s = %v, want %v", i, unit, g.Metrics[unit], v)
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// TestBenchGateScriptFailsOnRegression execs the real gate script in
// overhead-compare mode against a doctored regression and requires a
// non-zero exit naming the offending metric — the CI contract, end to end.
func TestBenchGateScriptFailsOnRegression(t *testing.T) {
	if _, err := execLook("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	base := writeTrajectory(t, dir, "base.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 10.0),
		ratioRow("BenchmarkStressOverhead/alloc/p1/s1", 1.1),
	}})
	cur := writeTrajectory(t, dir, "cur.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 40.0), // 4x: past both bounds
		ratioRow("BenchmarkStressOverhead/alloc/p1/s1", 1.1),
	}})
	out, err := runGateScript(t, base, cur)
	if err == nil {
		t.Fatalf("bench_gate.sh passed a 4x ratio regression:\n%s", out)
	}
	if !strings.Contains(out, "storm/p1/s1") {
		t.Errorf("gate output does not name the offending metric:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("gate output has no FAIL line:\n%s", out)
	}

	// And the same fixtures with no regression must pass with a PASS line.
	okCur := writeTrajectory(t, dir, "ok.json", File{Benchmarks: []Result{
		ratioRow("BenchmarkStressOverhead/storm/p1/s1", 10.5),
		ratioRow("BenchmarkStressOverhead/alloc/p1/s1", 1.0),
	}})
	out, err = runGateScript(t, base, okCur)
	if err != nil {
		t.Fatalf("bench_gate.sh failed an in-threshold run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("gate output has no PASS line:\n%s", out)
	}
}

// execLook is a seam over exec.LookPath so the script test can skip on
// hosts without bash.
func execLook(name string) (string, error) { return exec.LookPath(name) }

// runGateScript invokes scripts/bench_gate.sh from the repo root in
// overhead-compare mode and returns its combined output.
func runGateScript(t *testing.T, base, cur string) (string, error) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "scripts/bench_gate.sh", "overhead-compare", base, cur)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}
