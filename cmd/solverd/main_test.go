package main

import (
	"strings"
	"testing"
	"time"

	"sparsetask/internal/server"
)

func TestCheckFlags(t *testing.T) {
	defaults := server.Config{QueueSize: 64, Workers: 2, PlanCacheSize: 128, CoalesceMax: 8, CoalesceWindow: 2 * time.Millisecond}
	for _, tc := range []struct {
		name  string
		edit  func(*server.Config)
		drain time.Duration
		flag  string // the flag the refusal names; "" accepts
	}{
		{"defaults", func(*server.Config) {}, 30 * time.Second, ""},
		{"smallest", func(c *server.Config) { *c = server.Config{QueueSize: 1, Workers: 1, PlanCacheSize: 1, CoalesceMax: 1} }, 0, ""},
		{"coalescing off ignores the window", func(c *server.Config) { c.CoalesceMax, c.CoalesceWindow = 1, 0 }, time.Second, ""},
		{"explicit runtime workers", func(c *server.Config) { c.RTWorkers = 4 }, time.Second, ""},
		{"no queue", func(c *server.Config) { c.QueueSize = 0 }, time.Second, "-queue 0"},
		{"negative queue", func(c *server.Config) { c.QueueSize = -1 }, time.Second, "-queue -1"},
		{"no workers", func(c *server.Config) { c.Workers = 0 }, time.Second, "-workers 0"},
		{"no plan cache", func(c *server.Config) { c.PlanCacheSize = 0 }, time.Second, "-plan-cache 0"},
		{"no batch", func(c *server.Config) { c.CoalesceMax = 0 }, time.Second, "-coalesce 0"},
		{"negative runtime workers", func(c *server.Config) { c.RTWorkers = -2 }, time.Second, "-rt-workers -2"},
		{"negative drain timeout", func(*server.Config) {}, -time.Second, "-drain-timeout -1s"},
		{"coalescing with no window", func(c *server.Config) { c.CoalesceWindow = 0 }, time.Second, "-coalesce-window 0s"},
		{"coalescing with a negative window", func(c *server.Config) { c.CoalesceWindow = -time.Millisecond }, time.Second, "-coalesce-window -1ms"},
	} {
		cfg := defaults
		tc.edit(&cfg)
		err := checkFlags(cfg, tc.drain)
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
