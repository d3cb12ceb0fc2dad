package core

import (
	"testing"
	"unsafe"
)

// TestNodeStateSize pins the per-node pipeline state. RunContext allocates
// one pipelineStepper per node, so every byte here costs n bytes per run:
// a stage constant that creeps back into a fragment shows here first. The
// sizes are those of 64-bit platforms.
func TestNodeStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(pipelineStepper{}); got != 552 {
		t.Errorf("pipelineStepper is %d bytes, want 552", got)
	}
}
