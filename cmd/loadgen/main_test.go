package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		arrivals string
		conc     int
		inflight int
		rate     float64
		dur      time.Duration
		flag     string // the flag the refusal names; "" accepts
	}{
		{"closed defaults", "closed", 4, 512, 20, 10 * time.Second, ""},
		{"open defaults", "open", 4, 512, 20, 10 * time.Second, ""},
		{"open ignores -c", "open", 0, 1, 20, time.Second, ""},
		{"closed ignores -max-inflight", "closed", 1, -1, 0, time.Second, ""},
		{"no clients", "closed", 0, 512, 20, time.Second, "-c 0"},
		{"negative clients", "closed", -3, 512, 20, time.Second, "-c -3"},
		{"zero duration", "closed", 4, 512, 20, 0, "-d 0s"},
		{"negative duration", "open", 4, 512, 20, -time.Second, "-d -1s"},
		{"no room in flight", "open", 4, 0, 20, time.Second, "-max-inflight 0"},
		{"negative in-flight cap", "open", 4, -1, 20, time.Second, "-max-inflight -1"},
		{"zero rate", "open", 4, 512, 0, time.Second, "-rate 0"},
		{"unknown arrivals", "bursty", 4, 512, 20, time.Second, `-arrivals "bursty"`},
	} {
		err := checkFlags(tc.arrivals, tc.conc, tc.inflight, tc.rate, tc.dur)
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
