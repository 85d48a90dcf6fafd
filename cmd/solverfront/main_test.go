package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/route"
	"sparsetask/internal/server"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe time.Duration
		flag  string // the flag the refusal names; "" accepts
	}{
		{"defaults", 500 * time.Millisecond, ""},
		{"short period", time.Millisecond, ""},
		{"no probe period", 0, "-probe-interval 0s"},
		{"negative probe period", -time.Second, "-probe-interval -1s"},
	} {
		err := checkFlags(route.Config{ProbeInterval: tc.probe})
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%s: accepted, want a refusal naming %s", tc.name, tc.flag)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+":"):
			t.Errorf("%s: refusal %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// TestStalledBodyIsCutOff: a client that sends the header and part of a
// POST /jobs body, then stalls, loses its connection once the read bound
// passes instead of holding the router's handler for as long as the socket
// stays open. The test shortens the bound; the constructor's own must leave
// room for the largest accepted body at 1 MiB/s.
func TestStalledBodyIsCutOff(t *testing.T) {
	r, err := route.New(route.Config{
		Shards:        []route.Shard{{Name: "s0", URL: "http://127.0.0.1:1"}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hs := newHTTPServer("", r.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout {
		t.Fatalf("server reads with timeouts %s/%s, want %s/%s", hs.ReadHeaderTimeout, hs.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	if need := time.Duration(server.MaxJobBodyBytes>>20) * time.Second; readTimeout < need {
		t.Fatalf("readTimeout %s leaves no room for a %d MiB body at 1 MiB/s (%s)", readTimeout, server.MaxJobBodyBytes>>20, need)
	}
	checkStallCutOff(t, hs)
}

// checkStallCutOff serves hs with a 200 ms read bound, sends it the header
// and the first bytes of a 4 KiB body, and requires the server to close the
// connection after the bound and well before the test's own 10 s guard.
func checkStallCutOff(t *testing.T, hs *http.Server) {
	t.Helper()
	const bound = 200 * time.Millisecond
	hs.ReadTimeout = bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	start := time.Now() // before the server can start its read clock
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /jobs HTTP/1.1\r\nHost: solverd\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"solver\":\"cg\",")
	conn.SetReadDeadline(start.Add(10 * time.Second))
	reply, err := io.ReadAll(conn) // ends when the server closes the connection
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a stalled body still held the connection after %s (read bound %s)", time.Since(start).Round(time.Millisecond), bound)
	}
	if took := time.Since(start); took < bound || took > bound+5*time.Second {
		t.Fatalf("connection closed after %s, want just past the %s bound (reply %q)", took.Round(time.Millisecond), bound, reply)
	}
}
