package sim

// This file implements the idle wake-wheel: a calendar queue over future
// wake slots that generalizes the all-idle fast-forward to mixed
// active/idle populations.
//
// Every IdleFor batch registers its node here under the first slot at
// which the node acts again. Per slot the engine pops exactly one bucket
// instead of probing a map, and sleeping nodes are never touched in
// between — they stay off the awake list — so a slot's cost scales with
// the nodes that actually act in it.
//
// The wheel is sized so that protocol idles (TDMA strides, stage skips —
// tens to a few thousand slots) land in their bucket's first revolution;
// longer spans survive extra revolutions at one comparison per revolution.
//
// Each bucket is an intrusive FIFO list threaded through per-node arrays
// sized once at construction: a node sleeps in at most one bucket at a
// time, so add and pop never allocate.

// wheelBuckets is the wheel's bucket count (one slot per bucket per
// revolution). Must be a power of two; 1024 covers the pipeline's longest
// common stride idles in one revolution.
const wheelBuckets = 1024

// wheelNil terminates a bucket list.
const wheelNil = -1

// wakeWheel is the engine's calendar queue of sleeping nodes. All access is
// from the engine's own loop, outside the step phase, so there is no
// locking.
type wakeWheel struct {
	head, tail [wheelBuckets]int32 // per bucket: first and last node, or wheelNil
	next       []int32             // node → next node in its bucket, or wheelNil
	wake       []int               // node → the slot it acts again in
	count      int
}

// newWakeWheel returns an empty wheel for nodes 0..n-1.
func newWakeWheel(n int) *wakeWheel {
	w := &wakeWheel{next: make([]int32, n), wake: make([]int, n)}
	for b := range w.head {
		w.head[b], w.tail[b] = wheelNil, wheelNil
	}
	return w
}

// add registers node to be woken at wakeSlot (the first slot at which it
// acts again). The node must not already be on the wheel.
func (w *wakeWheel) add(node int, wakeSlot int) {
	b := wakeSlot & (wheelBuckets - 1)
	id := int32(node)
	w.next[id] = wheelNil
	w.wake[id] = wakeSlot
	if w.tail[b] == wheelNil {
		w.head[b] = id
	} else {
		w.next[w.tail[b]] = id
	}
	w.tail[b] = id
	w.count++
}

// pop appends to due the nodes whose wake slot is exactly slot, in their
// registration order, and removes them from the wheel. Entries due in a
// later revolution keep their order; each is touched once per revolution.
func (w *wakeWheel) pop(slot int, due []int32) []int32 {
	if w.count == 0 {
		return due
	}
	b := slot & (wheelBuckets - 1)
	prev := int32(wheelNil)
	for id := w.head[b]; id != wheelNil; {
		nx := w.next[id]
		if w.wake[id] == slot {
			due = append(due, id)
			w.count--
			if prev == wheelNil {
				w.head[b] = nx
			} else {
				w.next[prev] = nx
			}
		} else {
			prev = id
		}
		id = nx
	}
	w.tail[b] = prev
	return due
}
