package topo

import "testing"

func TestByName(t *testing.T) {
	cases := []struct {
		name    string
		domains int
		ok      bool
	}{
		{"flat", 1, true},
		{"", 1, true},
		{"auto", 1, true},
		{"broadwell", 2, true},
		{"EPYC", 8, true},
		{"Broadwell", 2, true},
		{"numa", 0, false},
	}
	for _, c := range cases {
		tp, err := ByName(c.name)
		if c.ok != (err == nil) {
			t.Fatalf("ByName(%q): err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && tp.Domains != c.domains {
			t.Errorf("ByName(%q).Domains = %d, want %d", c.name, tp.Domains, c.domains)
		}
	}
}

func TestDomainCountClamps(t *testing.T) {
	if d := EPYC().DomainCount(3); d != 3 {
		t.Errorf("epyc over 3 workers: %d domains, want 3", d)
	}
	if d := EPYC().DomainCount(128); d != 8 {
		t.Errorf("epyc over 128 workers: %d domains, want 8", d)
	}
	if d := (Topology{}).DomainCount(16); d != 1 {
		t.Errorf("zero topology: %d domains, want 1", d)
	}
	if d := Broadwell().DomainCount(0); d != 2 {
		t.Errorf("broadwell with unresolved workers: %d domains, want 2", d)
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		tp      Topology
		workers int
		want    []int
	}{
		{EPYC(), 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{EPYC(), 10, []int{2, 2, 1, 1, 1, 1, 1, 1}},
		{Broadwell(), 7, []int{4, 3}},
		{Flat(), 4, []int{4}},
		{Topology{}, 5, []int{5}},
		{EPYC(), 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := c.tp.Partition(c.workers)
		if len(got) != len(c.want) {
			t.Fatalf("%v.Partition(%d) = %v, want %v", c.tp, c.workers, got, c.want)
		}
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v.Partition(%d) = %v, want %v", c.tp, c.workers, got, c.want)
			}
			sum += got[i]
		}
		if sum != c.workers {
			t.Fatalf("%v.Partition(%d) sums to %d", c.tp, c.workers, sum)
		}
	}
}

// TestDomainOf pins the worker→domain rule the executor and Regent share:
// contiguous ranges, the remainder on the leading domains. 6 workers over 4
// domains are [0 0 1 1 2 3] (sizes 2,2,1,1), not a floor map's [0 0 1 2 2 3].
func TestDomainOf(t *testing.T) {
	for workers := 1; workers <= 16; workers++ {
		for domains := 1; domains <= 8; domains++ {
			tp := Topology{Domains: domains}
			d := tp.DomainCount(workers)
			var want []int
			for dom := 0; dom < d; dom++ {
				size := workers / d
				if dom < workers%d {
					size++
				}
				for k := 0; k < size; k++ {
					want = append(want, dom)
				}
			}
			for w := 0; w < workers; w++ {
				if got := tp.DomainOf(w, workers); got != want[w] {
					t.Fatalf("%d workers over %d domains: worker %d in domain %d, want %d (map %v)",
						workers, domains, w, got, want[w], want)
				}
			}
		}
	}
}

func TestString(t *testing.T) {
	if s := EPYC().String(); s != "epyc(8d)" {
		t.Errorf("String = %q", s)
	}
	if s := (Topology{}).String(); s != "flat(1d)" {
		t.Errorf("zero String = %q", s)
	}
}
