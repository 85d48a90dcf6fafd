package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the sparsebench helper below
// re-executes the test binary, so the tests observe main's real exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("SPARSEBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sparsebench runs the command with args and returns its exit status and
// standard error.
func sparsebench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPARSEBENCH_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running sparsebench %v: %v", args, err)
	return 0, ""
}

func TestCPUProfileOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		// profiled: the run got as far as the experiment, so the profile
		// must be complete; otherwise no profile file may exist.
		profiled bool
	}{
		{"unknown experiment", []string{"-exp", "nosuch"}, 2, false},
		{"unknown preset", []string{"-exp", "table1", "-preset", "nosuch"}, 1, false},
		{"experiment fails", []string{"-exp", "table1", "-preset", "tiny", "-matrices", "nosuch"}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof := filepath.Join(t.TempDir(), "cpu.pprof")
			code, stderr := sparsebench(t, append(tc.args, "-cpuprofile", prof)...)
			if code != tc.code {
				t.Fatalf("exit status %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			b, err := os.ReadFile(prof)
			if !tc.profiled {
				if !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("a run refused before the experiment left a profile file (read error %v)", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// A stopped CPU profile is a gzip stream; an unstopped one is
			// an empty file.
			if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
				t.Fatalf("profile of a failed run is incomplete: %d bytes, starts % x", len(b), b[:min(len(b), 2)])
			}
		})
	}
}
