// Package machine describes the CPU models the discrete-event simulator
// executes on: core counts, cache geometry, NUMA layout and a simple cost
// model. Two models mirror the paper's testbeds — a 28-core Intel Broadwell
// node and a 128-core AMD EPYC node — and both can be scaled down so that
// cache-size-relative effects (matrix vs LLC) survive when the matrix suite
// itself is scaled down.
package machine

import "fmt"

// Cache describes one cache level.
type Cache struct {
	SizeBytes int64
	LineBytes int64
	Assoc     int
	// SharedBy is the number of cores sharing one instance: 1 = private,
	// Cores = fully shared, 4 = per-CCX (EPYC L3).
	SharedBy int
	// LatencyNs is the additional latency of a hit at this level.
	LatencyNs float64
}

// Model is a simulated machine.
type Model struct {
	Name    string
	Cores   int
	Sockets int
	// NUMADomains must divide Cores; consecutive core ranges form domains.
	NUMADomains int

	L1, L2, L3 Cache

	// FlopsPerNs is per-core peak double-precision flops per nanosecond.
	FlopsPerNs float64
	// MemLatencyNs is the local-memory line fetch latency.
	MemLatencyNs float64
	// RemoteExtraNs is the additional latency for a remote-NUMA line.
	RemoteExtraNs float64
	// MLP is the assumed memory-level parallelism: outstanding misses whose
	// latencies overlap. Effective memory time = Σ latencies / MLP.
	MLP float64
	// BWNsPerLine is the time one NUMA domain's memory controller needs to
	// serve one cache line: the bandwidth term of the cost model. When all
	// pages live in one domain (serial initialization), that controller
	// serializes the whole machine's traffic — the paper's Fig. 5 effect.
	BWNsPerLine float64

	// Overheads of the runtime being simulated, per task, charged on the
	// executing core (set by the simulator per policy, not here).
}

// Validate checks internal consistency.
func (m Model) Validate() error {
	if m.Cores <= 0 || m.NUMADomains <= 0 || m.Cores%m.NUMADomains != 0 {
		return fmt.Errorf("machine: %s: %d cores not divisible into %d domains", m.Name, m.Cores, m.NUMADomains)
	}
	for _, c := range []Cache{m.L1, m.L2, m.L3} {
		if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 || c.SharedBy <= 0 {
			return fmt.Errorf("machine: %s: invalid cache geometry %+v", m.Name, c)
		}
	}
	if m.FlopsPerNs <= 0 || m.MLP <= 0 {
		return fmt.Errorf("machine: %s: invalid cost parameters", m.Name)
	}
	return nil
}

// DomainOf returns the NUMA domain of a core.
func (m Model) DomainOf(core int) int {
	return core / (m.Cores / m.NUMADomains)
}

// Broadwell models the paper's Intel Xeon E5-2680v4 node: 2×14 cores,
// 32 KB L1d + 256 KB L2 per core, 35 MB L3 shared per socket, 2 NUMA domains.
func Broadwell() Model {
	return Model{
		Name:          "broadwell",
		Cores:         28,
		Sockets:       2,
		NUMADomains:   2,
		L1:            Cache{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, SharedBy: 1, LatencyNs: 1.2},
		L2:            Cache{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, SharedBy: 1, LatencyNs: 3.5},
		L3:            Cache{SizeBytes: 35 << 20, LineBytes: 64, Assoc: 16, SharedBy: 14, LatencyNs: 15},
		FlopsPerNs:    8, // 2.4 GHz × ~3.3 flops/cycle sustained
		MemLatencyNs:  90,
		RemoteExtraNs: 60,
		MLP:           24,  // hardware prefetchers sustain deep miss streams
		BWNsPerLine:   1.0, // ~64 GB/s per socket

	}
}

// EPYC models the paper's AMD EPYC 7H12 node: 2×64 cores, 32 KB L1d +
// 512 KB L2 per core, 16 MB L3 per 4-core CCX, 8 NUMA domains (4 per socket).
func EPYC() Model {
	return Model{
		Name:          "epyc",
		Cores:         128,
		Sockets:       2,
		NUMADomains:   8,
		L1:            Cache{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, SharedBy: 1, LatencyNs: 1.0},
		L2:            Cache{SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8, SharedBy: 1, LatencyNs: 3.0},
		L3:            Cache{SizeBytes: 16 << 20, LineBytes: 64, Assoc: 16, SharedBy: 4, LatencyNs: 12},
		FlopsPerNs:    9, // 2.6 GHz
		MemLatencyNs:  100,
		RemoteExtraNs: 90, // Infinity-fabric hop: NUMA effects are stronger
		MLP:           24,
		BWNsPerLine:   1.5, // ~42 GB/s per NUMA domain (8 domains/node)

	}
}

// SlowDown returns a copy with every latency and bandwidth term multiplied
// by s and the flop rate divided by s: a uniformly slower machine. Used when
// the matrix suite is scaled down so that per-task compute time keeps the
// same ratio to the (unscaled, real-world) per-task runtime overheads as in
// the paper; all reported times scale by s, which is irrelevant for the
// ratios and speedups the experiments measure.
func (m Model) SlowDown(s float64) Model {
	if s <= 1 {
		return m
	}
	o := m
	o.L1.LatencyNs *= s
	o.L2.LatencyNs *= s
	o.L3.LatencyNs *= s
	o.MemLatencyNs *= s
	o.RemoteExtraNs *= s
	o.BWNsPerLine *= s
	o.FlopsPerNs /= s
	return o
}

// Scaled returns a copy with cache sizes divided by f, used when the matrix
// suite is scaled down by ~f so that "matrix ≫ LLC" relationships are
// preserved. The private L1/L2 shrink by only √f: unlike the LLC-vs-matrix
// ratio, their role is holding one task's working tile, whose size shrinks
// with the square root of the matrix scale (chunks scale with rows/blockcount
// while block counts stay fixed). Sizes are floored to one set.
func (m Model) Scaled(f int) Model {
	if f <= 1 {
		return m
	}
	s := m
	s.Name = fmt.Sprintf("%s/%d", m.Name, f)
	priv := 1
	for priv*priv < f {
		priv++
	}
	for _, c := range []*Cache{&s.L1, &s.L2} {
		c.SizeBytes /= int64(priv)
		min := c.LineBytes * int64(c.Assoc)
		if c.SizeBytes < min {
			c.SizeBytes = min
		}
	}
	s.L3.SizeBytes /= int64(f)
	if min := s.L3.LineBytes * int64(s.L3.Assoc); s.L3.SizeBytes < min {
		s.L3.SizeBytes = min
	}
	return s
}

// ByName resolves a model from CLI flags ("broadwell" or "epyc").
func ByName(name string) (Model, error) {
	switch name {
	case "broadwell":
		return Broadwell(), nil
	case "epyc":
		return EPYC(), nil
	}
	return Model{}, fmt.Errorf("machine: unknown model %q (want broadwell or epyc)", name)
}
