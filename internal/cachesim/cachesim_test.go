package cachesim

import (
	"testing"

	"sparsetask/internal/machine"
)

func tinyModel() machine.Model {
	m := machine.Broadwell()
	m.Cores = 4
	m.NUMADomains = 2
	m.L1.SizeBytes = 1 << 10 // 16 lines
	m.L2.SizeBytes = 4 << 10
	m.L3.SizeBytes = 16 << 10
	m.L3.SharedBy = 2
	return m
}

func TestColdMissesThenHits(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	h.Access(0, 0x100000, 512, false, &c) // 8 lines, all cold
	if c.L1Miss != 8 || c.L1Hit != 0 || c.L3Miss != 8 {
		t.Fatalf("cold pass: %+v", c)
	}
	var c2 Counters
	h.Access(0, 0x100000, 512, false, &c2) // fits in L1: all hits
	if c2.L1Hit != 8 || c2.L1Miss != 0 {
		t.Fatalf("warm pass: %+v", c2)
	}
}

func TestCapacityEviction(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	// Stream 64 KiB through a 1 KiB L1: far exceeds all levels except none.
	h.Access(0, 0x100000, 64<<10, false, &c)
	var c2 Counters
	h.Access(0, 0x100000, 64<<10, false, &c2)
	// Second pass must still miss in L1 (working set 64x larger).
	if c2.L1Hit > c2.L1Miss/4 {
		t.Fatalf("L1 should thrash on 64x working set: %+v", c2)
	}
	// And must also miss L3 (4x its size).
	if c2.L3Miss == 0 {
		t.Fatalf("L3 should miss on 4x working set: %+v", c2)
	}
}

func TestSmallWorkingSetStaysInL3(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	h.Access(0, 0x100000, 8<<10, false, &c) // half of L3
	var c2 Counters
	h.Access(0, 0x100000, 8<<10, false, &c2)
	if c2.L3Miss != 0 {
		t.Fatalf("8K working set should fit L3 (16K): %+v", c2)
	}
}

func TestPrivateCachesPerCore(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	h.Access(0, 0x100000, 512, false, &c)
	var c2 Counters
	h.Access(1, 0x100000, 512, false, &c2)
	// Different core: L1/L2 cold, but same L3 group (cores 0,1 share L3 0).
	if c2.L1Hit != 0 {
		t.Fatalf("core 1 should not hit core 0's L1: %+v", c2)
	}
	if c2.L3Hit != 8 {
		t.Fatalf("core 1 should hit shared L3: %+v", c2)
	}
	// Core 2 is in another L3 group: full cold miss.
	var c3 Counters
	h.Access(2, 0x100000, 512, false, &c3)
	if c3.L3Hit != 0 || c3.L3Miss != 8 {
		t.Fatalf("core 2 in other L3 group should miss: %+v", c3)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	// With first touch, a core's own accesses are local; without it, pages
	// land in domain 0 and cores in domain 1 pay remote penalties.
	hOn := New(tinyModel(), true)
	var c Counters
	hOn.Access(3, 0x200000, 4096, false, &c) // core 3 is domain 1
	if c.RemoteLines != 0 {
		t.Fatalf("first touch should make core-3 pages local: %+v", c)
	}
	hOff := New(tinyModel(), false)
	var c2 Counters
	hOff.Access(3, 0x200000, 4096, false, &c2)
	if c2.RemoteLines != c2.L3Miss || c2.RemoteLines == 0 {
		t.Fatalf("without first touch, domain-1 fetches should be remote: %+v", c2)
	}

	// Core 0 (domain 0) first-touches region A and core 3 (domain 1) its
	// own region B; both cold passes are local. Core 3 then flushes its
	// caches and re-fetches A: every one of those misses is remote.
	h := New(tinyModel(), true)
	var c3 Counters
	h.Access(0, 0x100000, 4096, false, &c3)
	h.Access(3, 0x200000, 4096, false, &c3)
	if c3.L3Miss != 128 || c3.RemoteLines != 0 {
		t.Fatalf("first touch should make both cold passes local: %+v", c3)
	}
	h.Access(3, 0x100000, 64<<10, false, &c3)
	var c4 Counters
	h.Access(3, 0x100000, 4096, false, &c4)
	if c4.L3Miss == 0 || c4.RemoteLines != c4.L3Miss {
		t.Fatalf("domain 1's re-fetches of domain-0 pages should all be remote: %+v", c4)
	}
}

func TestTouchPreplacesPages(t *testing.T) {
	h := New(tinyModel(), true)
	h.Touch(0, 0x300000, 8192) // pages owned by domain 0
	var c Counters
	h.Access(3, 0x300000, 8192, false, &c) // domain 1 touches them
	if c.L3Miss == 0 || c.RemoteLines != c.L3Miss {
		t.Fatalf("every fetch of preplaced pages should be remote for domain 1: %+v", c)
	}
}

func TestLayoutDisjoint(t *testing.T) {
	l := NewLayout()
	b1 := l.Base(1, 100)
	b2 := l.Base(2, 100)
	if b1 == b2 {
		t.Fatal("distinct regions share a base")
	}
	if l.Base(1, 100) != b1 {
		t.Fatal("repeated Base changed address")
	}
	if b2-b1 < 4096 {
		t.Fatalf("regions not page-separated: %d %d", b1, b2)
	}
	if len(l.bases) != 2 {
		t.Fatalf("regions = %d, want 2", len(l.bases))
	}
}

func TestCountersAdd(t *testing.T) {
	// Every field distinct, so a field Add leaves out (or adds into the
	// wrong place) changes the sum.
	a := Counters{L1Hit: 1, L1Miss: 2, L2Hit: 3, L2Miss: 4, L3Hit: 5, L3Miss: 6,
		RemoteLines: 7, WritebackLines: 8}
	for d := range a.DomLines {
		a.DomLines[d] = int64(9 + d)
	}
	b := Counters{L1Hit: 100, L1Miss: 200, L2Hit: 300, L2Miss: 400, L3Hit: 500, L3Miss: 600,
		RemoteLines: 700, WritebackLines: 800}
	want := Counters{L1Hit: 101, L1Miss: 202, L2Hit: 303, L2Miss: 404, L3Hit: 505, L3Miss: 606,
		RemoteLines: 707, WritebackLines: 808}
	for d := range b.DomLines {
		b.DomLines[d] = int64(1000 * (d + 1))
		want.DomLines[d] = a.DomLines[d] + b.DomLines[d]
	}
	a.Add(b)
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestModelValidate(t *testing.T) {
	for _, m := range []machine.Model{machine.Broadwell(), machine.EPYC()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := machine.Broadwell()
	bad.NUMADomains = 3 // 28 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid domain split accepted")
	}
}

func TestModelScaled(t *testing.T) {
	m := machine.Broadwell().Scaled(64)
	if m.L3.SizeBytes != (35<<20)/64 {
		t.Fatalf("L3 scaled wrong: %d", m.L3.SizeBytes)
	}
	if m.L1.SizeBytes < m.L1.LineBytes*int64(m.L1.Assoc) {
		t.Fatal("scaled below one set")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDomainOf(t *testing.T) {
	m := machine.EPYC()
	if m.DomainOf(0) != 0 || m.DomainOf(127) != 7 || m.DomainOf(16) != 1 {
		t.Fatal("DomainOf mapping wrong")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	// Write a 32 KiB region (2x the 16 KiB L3), then stream another 32 KiB
	// of reads: dirty lines must be written back as they are evicted.
	h.Access(0, 0x100000, 32<<10, true, &c)
	h.Access(0, 0x200000, 32<<10, false, &c)
	if c.WritebackLines == 0 {
		t.Fatalf("no writebacks after evicting dirty lines: %+v", c)
	}
	// Reads alone never produce writebacks.
	h2 := New(tinyModel(), true)
	var c2 Counters
	h2.Access(0, 0x100000, 32<<10, false, &c2)
	h2.Access(0, 0x200000, 32<<10, false, &c2)
	if c2.WritebackLines != 0 {
		t.Fatalf("read-only stream produced writebacks: %+v", c2)
	}
}

func TestWritebackChargesOwnerDomain(t *testing.T) {
	h := New(tinyModel(), true)
	var c Counters
	// Core 3 (domain 1) writes then evicts its own pages: the writeback
	// bandwidth lands on domain 1's controller.
	h.Access(3, 0x400000, 32<<10, true, &c)
	h.Access(3, 0x500000, 32<<10, false, &c)
	if c.WritebackLines == 0 {
		t.Fatal("expected writebacks")
	}
	if c.DomLines[1] <= c.DomLines[0] {
		t.Fatalf("writebacks should charge domain 1: %+v", c.DomLines)
	}
}
