// Package topo names the machine profile roofline.Calibrate memoizes its
// triad under. The live executor is flat and the machines of the paper are
// described once, in internal/machine, for the simulator; this stub remains
// only because the benchmark module passes Flat() to Calibrate.
package topo

// Topology names a calibration profile.
type Topology struct {
	Name string
}

// Flat returns the one profile there is: all workers in one domain.
func Flat() Topology { return Topology{Name: "flat"} }
