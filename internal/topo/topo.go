// Package topo models machine topology for locality-aware scheduling: a
// worker pool grouped into locality domains (NUMA nodes or CCX clusters).
// Named profiles mirror the paper's two evaluation machines — Broadwell
// (2 NUMA domains) and EPYC (8 domains of 4-core CCXs) — so exec-mode runs on
// any host can reproduce the *shape* of the paper's locality hierarchy even
// when the host itself is flat.
//
// A Topology is a pure shape: it says how many domains workers divide into,
// not how many workers there are. The scheduler fits the shape to its worker
// count with Partition. The zero value is a flat single-domain topology, so
// existing callers that never set a topology keep their old behavior.
package topo

import (
	"fmt"
	"strings"

	"sparsetask/internal/machine"
)

// Topology describes how workers group into locality domains. Domains <= 1
// means flat (no locality hierarchy); the zero value is flat.
type Topology struct {
	// Name is the profile name ("flat", "broadwell", "epyc", "auto").
	Name string
	// Domains is the number of locality domains the profile prescribes.
	// Schedulers clamp it to their worker count (a domain never goes empty).
	Domains int
}

// Flat returns the single-domain topology: uniform stealing, no hierarchy.
func Flat() Topology { return Topology{Name: "flat", Domains: 1} }

// Broadwell returns the paper's 2-socket Xeon E5-2680v4 shape: the NUMA
// domains of machine.Broadwell (§2, "Broadwell").
func Broadwell() Topology {
	return Topology{Name: "broadwell", Domains: machine.Broadwell().NUMADomains}
}

// EPYC returns the paper's 2-socket EPYC 7H12 shape: the NUMA domains of
// machine.EPYC, each a cluster of 4-core CCXs sharing an L3 slice (§2,
// "EPYC").
func EPYC() Topology { return Topology{Name: "epyc", Domains: machine.EPYC().NUMADomains} }

// Auto returns the auto-detected host profile. Pure Go has no portable NUMA
// probe, so detection is conservative: a flat single-domain topology that
// matches whatever worker count the scheduler chooses. Named "auto" so
// configuration and metrics record that detection (not an explicit profile)
// picked the shape.
func Auto() Topology { return Topology{Name: "auto", Domains: 1} }

// ByName resolves a profile name (case-insensitive). Valid names: "flat",
// "auto", "broadwell", "epyc". The empty string resolves to flat.
func ByName(name string) (Topology, error) {
	switch strings.ToLower(name) {
	case "", "flat":
		return Flat(), nil
	case "auto":
		return Auto(), nil
	case "broadwell":
		return Broadwell(), nil
	case "epyc":
		return EPYC(), nil
	}
	return Topology{}, fmt.Errorf("topo: unknown profile %q (valid: flat, auto, broadwell, epyc)", name)
}

// String renders the profile for logs and metrics.
func (t Topology) String() string {
	name := t.Name
	if name == "" {
		name = "flat"
	}
	d := t.Domains
	if d < 1 {
		d = 1
	}
	return fmt.Sprintf("%s(%dd)", name, d)
}

// DomainCount returns the effective domain count for a pool of `workers`
// workers: the profile's domain count clamped to [1, workers] so no domain
// is empty.
func (t Topology) DomainCount(workers int) int {
	d := t.Domains
	if d < 1 {
		d = 1
	}
	if workers >= 1 && d > workers {
		d = workers
	}
	return d
}

// DomainOf returns the domain of worker w in a pool of `workers` workers:
// domains take contiguous worker ranges, sizes as even as possible with the
// remainder spread over the leading domains (mirroring how cores map to NUMA
// nodes). It is the one worker→domain rule; every scheduler that groups
// workers into domains asks it.
func (t Topology) DomainOf(w, workers int) int {
	if workers < 1 {
		workers = 1
	}
	d := t.DomainCount(workers)
	base, rem := workers/d, workers%d
	if lead := rem * (base + 1); w >= lead {
		return rem + (w-lead)/base
	}
	return w / (base + 1)
}

// Partition splits `workers` workers into per-domain counts under DomainOf:
// domain 0 holds workers [0, counts[0]), domain 1 the next counts[1], and so
// on.
func (t Topology) Partition(workers int) []int {
	if workers < 1 {
		workers = 1
	}
	counts := make([]int, t.DomainCount(workers))
	for w := 0; w < workers; w++ {
		counts[t.DomainOf(w, workers)]++
	}
	return counts
}
