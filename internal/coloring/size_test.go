package coloring

import (
	"testing"
	"unsafe"
)

// TestNodeStateSize pins the per-node sec7 state. RunContext allocates one
// sec7Stepper per node, so every byte here costs n bytes per run: a stage
// constant that creeps back into a fragment shows here first. The sizes are
// those of 64-bit platforms.
func TestNodeStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(sec7Stepper{}); got != 576 {
		t.Errorf("sec7Stepper is %d bytes, want 576", got)
	}
}
