package main

// CLI conformance tests: TestMain re-execs this test binary as the real
// teeperf binary (TEEPERF_CLI_EXEC=1), so exit codes, stdout and stderr
// are asserted through exactly the code path the shipped binary runs.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"teeperf"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
)

func TestMain(m *testing.M) {
	if os.Getenv("TEEPERF_CLI_EXEC") == "1" {
		// A grandchild spawned by `teeperf run` inherits TEEPERF_CLI_EXEC
		// but additionally carries the shared-mapping handoff: that is the
		// instrumented-application role, not the CLI role.
		if os.Getenv("TEEPERF_RT_CHILD") == "1" && os.Getenv(recorder.SharedEnv) != "" {
			runRTGrandchild()
		}
		args := os.Args[1:]
		for i, a := range os.Args {
			if a == "--" {
				args = os.Args[i+1:]
				break
			}
		}
		os.Exit(cliMain(args))
	}
	os.Exit(m.Run())
}

// runRTGrandchild is the instrumented application `teeperf run` launches in
// TestCLIRun: a small fixed workload through the public Session API, which
// picks up the shared mapping from the environment.
func runRTGrandchild() {
	s, err := teeperf.New()
	if err != nil {
		os.Stderr.WriteString("rt grandchild: " + err.Error() + "\n")
		os.Exit(4)
	}
	addr, err := s.RegisterFunc("cli_child_fn", "cli.go", 1)
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		os.Stderr.WriteString("rt grandchild: " + err.Error() + "\n")
		os.Exit(4)
	}
	th, err := s.Thread()
	if err != nil {
		os.Stderr.WriteString("rt grandchild: " + err.Error() + "\n")
		os.Exit(4)
	}
	for i := 0; i < 3; i++ {
		th.Enter(addr)
		th.Exit(addr)
	}
	if err := s.Stop(); err != nil {
		os.Stderr.WriteString("rt grandchild: " + err.Error() + "\n")
		os.Exit(4)
	}
	os.Exit(0)
}

// runCLI executes one teeperf command line through the re-exec'd binary
// and returns (stdout, stderr, exit code).
func runCLI(t *testing.T, extraEnv []string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "TEEPERF_CLI_EXEC=1")
	cmd.Env = append(cmd.Env, extraEnv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("exec CLI: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestCLIExitCodes pins the documented exit-code contract: 2 for usage
// mistakes, 1 for failed operations, 0 for success.
func TestCLIExitCodes(t *testing.T) {
	t.Run("no args is usage", func(t *testing.T) {
		_, stderr, code := runCLI(t, nil)
		if code != 2 {
			t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
		}
		if !bytes.Contains([]byte(stderr), []byte("usage: teeperf")) {
			t.Fatalf("stderr lacks usage text: %s", stderr)
		}
	})
	t.Run("unknown command is usage", func(t *testing.T) {
		_, stderr, code := runCLI(t, nil, "frobnicate")
		if code != 2 {
			t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
		}
		if !bytes.Contains([]byte(stderr), []byte(`unknown command "frobnicate"`)) {
			t.Fatalf("stderr lacks unknown-command message: %s", stderr)
		}
	})
	t.Run("analyze torn bundle fails", func(t *testing.T) {
		ensureFixtures(t)
		_, stderr, code := runCLI(t, nil, "analyze", "-i", "testdata/torn.teeperf.part")
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
		}
		if !bytes.Contains([]byte(stderr), []byte("teeperf recover")) {
			t.Fatalf("stderr lacks the recover hint: %s", stderr)
		}
	})
	t.Run("recover clean bundle fails", func(t *testing.T) {
		ensureFixtures(t)
		_, stderr, code := runCLI(t, nil, "recover", "-i", "testdata/sample.teeperf")
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
		}
		if !bytes.Contains([]byte(stderr), []byte("nothing to recover")) {
			t.Fatalf("stderr lacks intact-bundle message: %s", stderr)
		}
	})
	t.Run("recover -o keeps its .part input", func(t *testing.T) {
		ensureFixtures(t)
		torn, err := os.ReadFile("testdata/torn.teeperf.part")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		in, out := filepath.Join(dir, "run.teeperf.part"), filepath.Join(dir, "run.teeperf")
		if err := os.WriteFile(in, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := runCLI(t, nil, "recover", "-i", in, "-o", out, "-top", "0")
		if code != 0 {
			t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr)
		}
		if got, err := os.ReadFile(in); err != nil || !bytes.Equal(got, torn) {
			t.Fatalf("recover -o changed its input %s (err %v)", in, err)
		}
		if _, _, err := recorder.ReadBundleFile(out); err != nil {
			t.Fatalf("salvaged bundle does not load strictly: %v", err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 2 {
			t.Fatalf("dir holds %d files after recover, want input and output only", len(ents))
		}
	})
	t.Run("record bad output path fails", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "no", "such", "dir", "x.teeperf")
		_, stderr, code := runCLI(t, nil,
			"record", "-workload", "dbbench", "-ops", "20", "-capacity", "4096", "-o", out)
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
		}
	})
	t.Run("analyze missing input is an operation failure", func(t *testing.T) {
		_, _, code := runCLI(t, nil, "analyze", "-i", filepath.Join(t.TempDir(), "absent.teeperf"))
		if code != 1 {
			t.Fatalf("exit = %d, want 1", code)
		}
	})
}

// TestCLIRun drives the full cross-process wrapper through the binary:
// `teeperf run` creates the mapping and hosts the counter, the grandchild
// (this same binary in the TEEPERF_RT_CHILD role) appends through the
// Session API, and the persisted bundle must contain its workload.
func TestCLIRun(t *testing.T) {
	if !shmlog.MmapSupported {
		t.Skip("cross-process recording unsupported on this platform")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.teeperf")
	stdout, stderr, code := runCLI(t, []string{"TEEPERF_RT_CHILD=1"},
		"run", "-o", out, "-capacity", "4096", "--",
		os.Args[0], "-test.run=^$")
	if code != 0 {
		t.Fatalf("teeperf run exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	p, err := teeperf.Load(out)
	if err != nil {
		t.Fatalf("load %s: %v", out, err)
	}
	if st, ok := p.Func("cli_child_fn"); !ok || st.Calls != 3 {
		t.Fatalf("cli_child_fn = %+v, want 3 calls (stdout: %s)", st, stdout)
	}
	if _, err := os.Stat(out + ".shm"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("mapping file not cleaned up: %v", err)
	}
}
