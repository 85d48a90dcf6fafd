package leakcheck

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"testing"
	"time"
)

// TestMain gates this package's own tests, and is the gate under test when
// TestGate re-executes the binary as a child with LEAKCHECK_CHILD set: the
// child runs only TestChild, under a short grace so a leak fails fast.
func TestMain(m *testing.M) {
	if os.Getenv("LEAKCHECK_CHILD") != "" {
		os.Exit(run(m, 200*time.Millisecond))
	}
	Main(m)
}

// parkForever blocks on a channel nobody sends on or closes.
func parkForever(ch chan struct{}) { <-ch }

// TestChild is the child's test body: "leak" leaves a goroutine parked on a
// channel, "clean" leaves one that exits shortly after the test returns, and
// "signal" starts os/signal's receive loop, which never exits.
func TestChild(t *testing.T) {
	switch os.Getenv("LEAKCHECK_CHILD") {
	case "leak":
		go parkForever(make(chan struct{}))
	case "clean":
		go time.Sleep(20 * time.Millisecond)
	case "signal":
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt)
		signal.Stop(c)
	default:
		t.Skip("runs only as TestGate's child")
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		mode string
		code int
		want []string // in the child's standard error
	}{
		{"leak", 1, []string{"leakcheck: 1 goroutine(s) outlived the tests", "[chan receive]", "leakcheck.parkForever("}},
		{"clean", 0, nil},
		{"signal", 0, nil},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestChild$")
			cmd.Env = append(os.Environ(), "LEAKCHECK_CHILD="+tc.mode)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != tc.code {
				t.Fatalf("child exited %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("child's stderr lacks %q:\n%s", w, stderr.String())
				}
			}
		})
	}
}
