package core

// ExecMode selects how Run — and coloring.RunContext, the Sec. 7 coloring
// built on the same structure — drive the per-node code.
type ExecMode int

const (
	// ExecAuto (the zero value) runs the goroutine-free Stepper form, which
	// is faster than goroutine programs at every measured size.
	ExecAuto ExecMode = iota
	// ExecGoroutines forces one goroutine per node (the historical mode),
	// kept as the reference oracle the Stepper form is checked against.
	ExecGoroutines
	// ExecStepped forces the goroutine-free Stepper form: per-node state in
	// explicit structs, driven inline by the engine each slot.
	ExecStepped
)

// String returns the mode's CLI/spec name.
func (m ExecMode) String() string {
	switch m {
	case ExecGoroutines:
		return "goroutines"
	case ExecStepped:
		return "stepped"
	default:
		return "auto"
	}
}

// Stepped reports whether the mode resolves to the Stepper form.
func (m ExecMode) Stepped() bool { return m != ExecGoroutines }
