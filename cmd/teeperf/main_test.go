package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teeperf"
	"teeperf/internal/faultinject"
	"teeperf/internal/shmlog"
)

// chdirTemp runs the CLI from a scratch directory so outputs don't litter
// the repository.
func chdirTemp(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
	return dir
}

func recordSample(t *testing.T, dir string) string {
	t.Helper()
	bundle := filepath.Join(dir, "sample.teeperf")
	err := run([]string{"record",
		"-workload", "phoenix/histogram",
		"-platform", "sgx-v1",
		"-scale", "1",
		"-o", bundle,
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return bundle
}

func TestCLIRecordAnalyzeRoundTrip(t *testing.T) {
	dir := chdirTemp(t)
	bundle := recordSample(t, dir)

	if err := run([]string{"analyze", "-i", bundle, "-top", "5"}); err != nil {
		t.Errorf("analyze: %v", err)
	}
	if err := run([]string{"threads", "-i", bundle}); err != nil {
		t.Errorf("threads: %v", err)
	}
	if err := run([]string{"dump", "-i", bundle, "-n", "10"}); err != nil {
		t.Errorf("dump: %v", err)
	}
	if err := run([]string{"folded", "-i", bundle, "-o", filepath.Join(dir, "out.folded")}); err != nil {
		t.Errorf("folded: %v", err)
	}
	if err := run([]string{"flame", "-i", bundle, "-o", filepath.Join(dir, "out.svg")}); err != nil {
		t.Errorf("flame: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "out.svg")); err != nil {
		t.Errorf("flame output missing: %v", err)
	}
	if err := run([]string{"query", "-i", bundle, "-q", `name == "histogram"`, "-group", "name", "-sort", "calls"}); err != nil {
		t.Errorf("query: %v", err)
	}
}

func TestCLIRecordWorkloads(t *testing.T) {
	dir := chdirTemp(t)
	for _, workload := range []string{"dbbench", "spdk-optimized"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			bundle := filepath.Join(dir, workload+".teeperf")
			err := run([]string{"record", "-workload", workload, "-ops", "300", "-o", bundle})
			if err != nil {
				t.Fatalf("record %s: %v", workload, err)
			}
			if err := run([]string{"analyze", "-i", bundle, "-top", "3"}); err != nil {
				t.Errorf("analyze %s: %v", workload, err)
			}
		})
	}
}

func TestCLIRecordSelective(t *testing.T) {
	dir := chdirTemp(t)
	bundle := filepath.Join(dir, "sel.teeperf")
	err := run([]string{"record",
		"-workload", "phoenix/string_match",
		"-only", "string_match",
		"-o", bundle,
	})
	if err != nil {
		t.Fatalf("selective record: %v", err)
	}
	if err := run([]string{"analyze", "-i", bundle}); err != nil {
		t.Errorf("analyze: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	chdirTemp(t)
	cases := [][]string{
		{},
		{"bogus"},
		{"analyze"},                      // missing -i
		{"analyze", "-i", "nope.bundle"}, // missing file
		{"query", "-i", "nope.bundle", "-q", "x == 1"},
		{"record", "-workload", "bogus/one"},
		{"record", "-platform", "bogus"},
		{"dump"},
		{"flame"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCLIQueryBadExpression(t *testing.T) {
	dir := chdirTemp(t)
	bundle := recordSample(t, dir)
	if err := run([]string{"query", "-i", bundle, "-q", "((("}); err == nil {
		t.Error("bad query expression should fail")
	}
	if err := run([]string{"query", "-i", bundle, "-group", "bogus_col"}); err == nil {
		t.Error("bad group column should fail")
	}
	if err := run([]string{"query", "-i", bundle, "-sort", "bogus_col"}); err == nil {
		t.Error("bad sort column should fail")
	}
}

func TestCLIDiffCallgraphPaths(t *testing.T) {
	dir := chdirTemp(t)
	a := filepath.Join(dir, "a.teeperf")
	if err := run([]string{"record", "-workload", "spdk-naive", "-ops", "200", "-o", a}); err != nil {
		t.Fatalf("record naive: %v", err)
	}
	b := filepath.Join(dir, "b.teeperf")
	if err := run([]string{"record", "-workload", "spdk-optimized", "-ops", "200", "-o", b}); err != nil {
		t.Fatalf("record optimized: %v", err)
	}
	if err := run([]string{"diff", "-a", a, "-b", b, "-top", "8"}); err != nil {
		t.Errorf("diff: %v", err)
	}
	if err := run([]string{"callgraph", "-i", a, "-top", "5"}); err != nil {
		t.Errorf("callgraph: %v", err)
	}
	if err := run([]string{"paths", "-i", a, "-leaf", "getpid", "-n", "5"}); err != nil {
		t.Errorf("paths: %v", err)
	}
	// Error paths.
	if err := run([]string{"diff", "-a", a}); err == nil {
		t.Error("diff without -b should fail")
	}
	if err := run([]string{"diff", "-a", "missing", "-b", b}); err == nil {
		t.Error("diff with missing bundle should fail")
	}
}

func TestCLIWhatIfAndReport(t *testing.T) {
	dir := chdirTemp(t)
	bundle := recordSample(t, dir)
	if err := run([]string{"whatif", "-i", bundle, "-remove", "hist_chunk,histogram"}); err != nil {
		t.Errorf("whatif: %v", err)
	}
	if err := run([]string{"whatif", "-i", bundle}); err == nil {
		t.Error("whatif without -remove should fail")
	}
	out := filepath.Join(dir, "r.html")
	if err := run([]string{"report", "-i", bundle, "-o", out, "-title", "cli test"}); err != nil {
		t.Fatalf("report: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cli test") || !strings.Contains(string(data), "<svg") {
		t.Error("report output incomplete")
	}
}

func TestCLITransitionsAndInteractiveFlame(t *testing.T) {
	dir := chdirTemp(t)
	bundle := filepath.Join(dir, "tr.teeperf")
	if err := run([]string{"record", "-workload", "spdk-naive", "-ops", "150", "-transitions", "-o", bundle}); err != nil {
		t.Fatalf("record -transitions: %v", err)
	}
	svg := filepath.Join(dir, "i.svg")
	if err := run([]string{"flame", "-i", bundle, "-o", svg, "-interactive"}); err != nil {
		t.Fatalf("flame -interactive: %v", err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<script><![CDATA[") {
		t.Error("interactive flame graph missing zoom script")
	}
}

// TestCheckpointedRunWritesBundleOnce: with -checkpoint, Stop's final
// checkpoint pass writes the finished bundle to <output>, so record and
// run must not write the same bundle a second time. The interval outlasts
// the run, so that final pass is the only bundle write.
func TestCheckpointedRunWritesBundleOnce(t *testing.T) {
	countWrites := func(t *testing.T, args ...string) *teeperf.Profile {
		t.Helper()
		inj := faultinject.Default
		inj.Reset()
		t.Cleanup(inj.Reset)
		// Hits count only while some point is armed; the store's GC point
		// is never reached here.
		inj.Arm(faultinject.StoreGC, 1, faultinject.Fail())
		out := filepath.Join(t.TempDir(), "run.teeperf")
		if err := run(append([]string{args[0], "-checkpoint", "1h", "-o", out}, args[1:]...)); err != nil {
			t.Fatalf("%s: %v", args[0], err)
		}
		if got := inj.Hits(faultinject.CheckpointBegin); got != 1 {
			t.Errorf("%s -checkpoint wrote the bundle %d times, want 1", args[0], got)
		}
		p, err := teeperf.Load(out)
		if err != nil {
			t.Fatalf("load %s: %v", out, err)
		}
		return p
	}
	t.Run("record", func(t *testing.T) {
		countWrites(t, "record", "-workload", "phoenix/histogram", "-scale", "1")
	})
	t.Run("run", func(t *testing.T) {
		if !shmlog.MmapSupported {
			t.Skip("cross-process recording unsupported on this platform")
		}
		// The child is this test binary in the instrumented-application
		// role (see TestMain).
		t.Setenv("TEEPERF_CLI_EXEC", "1")
		t.Setenv("TEEPERF_RT_CHILD", "1")
		p := countWrites(t, "run", "-capacity", "4096", "--", os.Args[0], "-test.run=^$")
		if st, ok := p.Func("cli_child_fn"); !ok || st.Calls != 3 {
			t.Errorf("cli_child_fn = %+v, want 3 calls", st)
		}
	})
}
