package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/route"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spill float64
		probe time.Duration
		fp    int
		flag  string // the flag the refusal names; "" accepts
	}{
		{"defaults", 0.75, 500 * time.Millisecond, 256, ""},
		{"spill only when full", 1, time.Millisecond, 1, ""},
		{"spill above full", 1.5, time.Second, 256, "-spill-frac 1.5"},
		{"never spill", 0, time.Second, 256, "-spill-frac 0"},
		{"negative spill", -0.5, time.Second, 256, "-spill-frac -0.5"},
		{"spill NaN", math.NaN(), time.Second, 256, "-spill-frac NaN"},
		{"no probe period", 0.75, 0, 256, "-probe-interval 0s"},
		{"negative probe period", 0.75, -time.Second, 256, "-probe-interval -1s"},
		{"no fingerprint cache", 0.75, time.Second, 0, "-fp-cache 0"},
		{"negative fingerprint cache", 0.75, time.Second, -1, "-fp-cache -1"},
	} {
		err := checkFlags(route.Config{SpillFraction: tc.spill, ProbeInterval: tc.probe, FingerprintCacheSize: tc.fp})
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
