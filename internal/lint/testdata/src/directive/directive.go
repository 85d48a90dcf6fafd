// Package directive exercises the suppression-directive validation: a typo'd
// target or a missing reason must surface as a finding, never silently
// disable a gate. The missing-reason case is asserted programmatically in
// lint_test.go because a trailing want comment would itself be the reason.
package directive

//lint:ignore sparselint/nosuchanalyzer bogus target // want `not a sparselint analyzer`
var a = 1

//lint:ignore sparselint/atomicfield
var b = 2

var _ = a + b

//lint:ignore sparselint/atomicfield fixture: nothing on this line produces a finding
var c = 3
