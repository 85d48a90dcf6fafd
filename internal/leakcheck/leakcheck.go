// Package leakcheck is a goroutine-leak gate for a package's tests. A
// package opts in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// It is for test binaries only: Main ends the process.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// grace is how long the gate waits for goroutines that are on their way out
// (a worker woken by Close, a connection loop seeing its peer hang up).
const grace = 5 * time.Second

// Main runs the tests and exits with their status. When they pass, every
// goroutine that was not alive before the tests must exit within a few
// seconds; if any remain, Main prints their stacks and exits 1.
func Main(m *testing.M) { os.Exit(run(m, grace)) }

func run(m *testing.M, grace time.Duration) int {
	before := stacks()
	if code := m.Run(); code != 0 {
		return code
	}
	var leaked []string
	for deadline := time.Now().Add(grace); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for id, stack := range stacks() {
			if _, ok := before[id]; !ok && !signalLoop(stack) {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			break
		}
	}
	sort.Strings(leaked)
	fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests by %v:\n\n%s\n",
		len(leaked), grace, strings.Join(leaked, "\n\n"))
	return 1
}

// signalLoop reports whether stack is os/signal's receive loop. The first
// signal.Notify in the process starts it and nothing stops it, so it outlives
// any test that notifies: `go test -fuzz`'s coordinator does, inside m.Run.
func signalLoop(stack string) bool {
	_, frames, _ := strings.Cut(stack, "\n")
	return strings.HasPrefix(frames, "os/signal.signal_recv()\n") &&
		strings.Contains(frames, "\ncreated by os/signal.Notify")
}

// stacks returns the stack of every goroutine, keyed by goroutine ID.
func stacks() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
		out[id] = stack
	}
	return out
}
