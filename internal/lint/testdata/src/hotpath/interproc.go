// Interprocedural cases: obligations propagate from hotpath roots over
// direct calls, interface dispatch, and function values, and stop at
// validated coldcall boundaries.
package hot

import "fmt"

//sparselint:hotpath
func hotRoot(xs []int) int { return hop1(xs) }

func hop1(xs []int) int { return hop2(xs) }

// hop2 is two hops from the root; its findings carry the provenance chain.
func hop2(xs []int) int {
	var ys []int
	ys = append(ys, xs...) // want `append may grow.*hot path: hotRoot → hop1 → hop2`
	return len(ys)
}

// summer is dispatched dynamically; CHA drags every implementation into hot
// scope.
type summer interface{ sum(xs []int) int }

type boxSummer struct{}

func (boxSummer) sum(xs []int) int { // want `sum keeps 0 bounds check\(s\) in hot loops and 1 heap escape\(s\) and has no budget`
	return len(fmt.Sprint(len(xs))) // want `fmt.Sprint allocates.*hot path: hotIface → sum`
}

//sparselint:hotpath
func hotIface(s summer, xs []int) int { return s.sum(xs) }

// refTarget is never called directly from hot code, but hotRef takes its
// value — every later indirect call is invisible, so the obligation lands
// here.
func refTarget(xs []int) int {
	var ys []int
	ys = append(ys, len(xs)) // want `append may grow.*hot path: hotRef → refTarget`
	return len(ys)
}

//sparselint:hotpath
func hotRef() func([]int) int { return refTarget }

// coldFail is a sanctioned boundary: its body is not checked, and
// propagation stops here.
//
//sparselint:coldcall fixture: error-path formatting is off the steady state
func coldFail(n int) error { return fmt.Errorf("hot: empty input (n=%d)", n) }

// hotWithCold inlines coldFail, whose boxed argument then escapes here.
//
//sparselint:hotpath
func hotWithCold(xs []int) error { // want `hotWithCold keeps 0 bounds check\(s\) in hot loops and 1 heap escape\(s\) and has no budget`
	if len(xs) == 0 {
		return coldFail(len(xs)) // conditional: a legal cold boundary crossing
	}
	return nil
}

//sparselint:coldcall fixture: setup boundary
func coldSetup() {}

//sparselint:hotpath
func hotColdUncond() {
	coldSetup() // want `coldSetup is called unconditionally from hot code`
}

//sparselint:coldcall
func coldNoReason() {} // want `sparselint:coldcall on coldNoReason needs a reason`

//sparselint:hotpath
//sparselint:coldcall fixture: contradictory pair
func hotAndCold() {} // want `annotated both sparselint:hotpath and sparselint:coldcall`
