package sim

// This file implements the node side of the engine: Stepper nodes hold
// their protocol state in explicit structs and are driven inline by the
// engine, one Step call per awake slot outside a listen batch, optionally
// fanned out across step workers. A Step call deposits its action into the
// node's own pending entry, the engine scans pending in node order, and
// all randomness comes from the node's own stream — so the resolved
// transcript is identical regardless of how many workers drive the Step
// calls. TestSteppedParallelDrive and TestListenForMatchesListenLoop pin
// this.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mcnet/internal/phy"
	"mcnet/internal/rng"
)

// Stepper is a node protocol. The engine calls Step once per slot in which
// the node is awake; each call must perform exactly one primitive on sc —
// Transmit, Listen, ListenFor, Idle, or IdleFor — or call Done to power the
// node down for the rest of the run. After an IdleFor(k), the next Step
// call comes k slots later; after a ListenFor(ch, k), it comes the slot
// after the first decoded reception, or k slots later.
//
// A Stepper must draw randomness only from sc.Rand and must not retain sc
// across calls. If it listened in the previous acting slot, sc.Prev holds
// that slot's reception; consume it before doing anything else (including
// drawing randomness), so the protocol reacts to a reception before its
// next decision — the order the committed transcript goldens pin.
//
// Sleeping rule: a node whose next k slots are provably idle — no radio
// action, no sc.Rand draw and no Emit — covers them with one IdleFor(k)
// rather than k Idle calls, up to its next decision point (its next draw,
// listen or transmit, or the end of its current Frag). The transcript is
// the same either way; only the Step calls differ, and a sleeping node
// costs the engine nothing. A node never sleeps past its stage window's
// end (the stage glue there may Emit or draw), and never skips or reorders
// a Rand draw.
//
// Listening rule: a node listens only in slots whose reception it can still
// read. Once nothing a protocol could hear would change its state or output
// (it already holds the result a flood carries, say, or has fixed the color
// that heard announcements constrain), each such listen becomes an Idle,
// and a run of them with no Rand draw becomes one IdleFor under the
// sleeping rule. Transmissions, draws, events and results are the same
// either way; the slot loses only the node's listener entry, and with it a
// Step call and that listener's SINR sum (and a FaultInjector that counts
// delivered receptions counts fewer).
//
// Batch rule: a node that would listen on one channel slot after slot,
// ignoring every reception that does not decode, covers the run with one
// ListenFor(ch, k) rather than k Listen calls, up to its next decision
// point (its next draw, transmit or Emit, the end of its phase or of its
// stage window). The engine keeps it a listener in every slot of the batch
// — its listener entry, reception, FilterReception call and Trace view are
// the same — but steps it again only in the slot after the first
// reception that decodes (judged after the fault filter), which Prev then
// holds, or once the k slots are over, when Prev holds the last one. The
// crash check still runs every slot, so a node that crashes mid-batch
// stops listening at its crash slot. Only the Step calls differ.
type Stepper interface {
	Step(sc *StepCtx)
}

// Frag is a resumable protocol fragment used to compose Steppers out of
// stage-sized pieces. Feed either deposits exactly one primitive on sc and
// returns false (the fragment still owns the node's slots), or finalizes
// without acting and returns true — the caller then advances to the next
// fragment within the same Step call, so stage boundaries consume no extra
// slots. A fragment holds only per-node state; the stage's run constants
// (its Window, reception filter, round stride, counts and probability
// tables) are compiled once and shared by pointer. Fragments follow the
// Stepper sleeping and batch rules: each IdleFor or ListenFor runs to the
// fragment's next decision point and never past its stage window's end.
type Frag interface {
	Feed(sc *StepCtx) bool
}

// Window is a stage's slot window [Start, End()), compiled once per plan
// (or per standalone run) with the stage's other run constants: every node
// enters the stage at Start, measures its position as sc.Slot() − Start,
// and leaves it at End. A node that sits the stage out runs the Window
// itself as its Frag.
type Window struct{ Start, Len int }

// End returns the first slot after the window.
func (w *Window) End() int { return w.Start + w.Len }

// Rel returns the current slot relative to the window's start.
func (w *Window) Rel(sc *StepCtx) int { return sc.slot - w.Start }

// Feed implements Frag for a node that sits the stage out: one IdleFor to
// the window's end, then done (at once if the window is already over).
func (w *Window) Feed(sc *StepCtx) bool {
	if k := w.End() - sc.slot; k > 0 {
		sc.IdleFor(k)
		return false
	}
	return true
}

// Rounds is the slot arithmetic of a TDMA-interleaved fragment: round k
// spans the window-relative slots [k·Stride, (k+1)·Stride), and the node
// acts only in the round's slot Offset (0 ≤ Offset < Stride). The stage
// compiles Stride; Offset is the node's own. Fragments sleep straight from
// one act slot they need to the next.
type Rounds struct{ Stride, Offset int }

// Next returns the first round whose act slot is at or after the
// window-relative slot rel.
func (r Rounds) Next(rel int) int {
	if rel <= r.Offset {
		return 0
	}
	return (rel - r.Offset + r.Stride - 1) / r.Stride
}

// At returns round k's act slot.
func (r Rounds) At(k int) int { return k*r.Stride + r.Offset }

// FragStepper drives one Frag as a node's whole protocol: once the fragment
// finalizes, Finish (if set) observes the node's state and the node powers
// down in the same Step call. A nil Frag is built by New in the node's
// first Step, for fragments whose starting values draw on sc.Rand.
type FragStepper struct {
	Frag   Frag
	New    func(sc *StepCtx) Frag
	Finish func(sc *StepCtx)
}

// Step implements Stepper.
func (s *FragStepper) Step(sc *StepCtx) {
	if s.Frag == nil {
		s.Frag = s.New(sc)
	}
	if !s.Frag.Feed(sc) {
		return
	}
	if s.Finish != nil {
		s.Finish(sc)
	}
	sc.Done()
}

// StepCtx is a node's handle to the simulator. The engine owns it;
// Steppers use it only inside Step.
type StepCtx struct {
	// Rand is this node's private random stream.
	Rand *rand.Rand

	id      int
	engine  *Engine
	rs      *runState
	stepper Stepper
	slot    int
	crashAt int
	acted   bool
	ended   bool
}

// ID returns this node's index (the model's unique node ID).
func (c *StepCtx) ID() int { return c.id }

// Slot returns the slot the current Step call is acting in: the number of
// slots completed before it, so code that consumes a Listen's reception
// sees the slot after the listen.
func (c *StepCtx) Slot() int { return c.slot }

// Prev returns the reception delivered to this node's most recent Listen.
// It is only meaningful at the start of the Step call that follows a Listen;
// after a Transmit or Idle the contents are stale.
func (c *StepCtx) Prev() phy.Reception { return c.rs.results[c.id] }

// Transmit sends msg on the given channel for this slot. Receivers, the
// fault hooks and Trace all see msg as this one interface value: none of
// them mutates it (a Byzantine filter replaces a transmission's Msg rather
// than rewriting it), so a node may resend one boxed value.
func (c *StepCtx) Transmit(channel int, msg any) {
	a := c.put(actTransmit)
	a.ch, a.msg = channel, msg
}

// Send is Transmit for a message of comparable type T. When the node's
// previous transmission in the run was a T equal to msg, it resends that
// interface value instead of boxing msg again, so a node repeating an
// unchanged message allocates once, not once per transmission.
func Send[T comparable](c *StepCtx, channel int, msg T) {
	a := c.put(actTransmit)
	if prev, ok := a.msg.(T); !ok || prev != msg {
		a.msg = msg
	}
	a.ch = channel
}

// Listen receives on the given channel for this slot; the reception is
// available as Prev at the start of the next Step call.
func (c *StepCtx) Listen(channel int) {
	c.put(actListen).ch = channel
}

// ListenFor listens on the given channel for up to k consecutive slots
// (the Stepper batch rule): the next Step call comes in the slot after the
// first decoded reception, or k slots later, and Prev then holds the
// batch's last reception. k ≤ 0 is a no-op (the Step call must still act).
func (c *StepCtx) ListenFor(channel, k int) {
	if k <= 0 {
		return
	}
	c.put(actListen).ch = channel
	c.rs.listenUntil[c.id] = min(c.slot+k, c.crashAt)
}

// Idle does nothing for this slot (radio off).
func (c *StepCtx) Idle() {
	c.put(actIdle)
}

// IdleFor idles for k consecutive slots; the next Step call comes k slots
// later. k ≤ 0 is a no-op (the Step call must still act).
func (c *StepCtx) IdleFor(k int) {
	if k == 1 {
		c.Idle()
		return
	}
	if k <= 0 {
		return
	}
	c.put(actIdleLong).count = k
}

// Done powers the node down for the remainder of the run. It is final and
// performs no primitive: a Step call must either act or call Done, never
// both.
func (c *StepCtx) Done() {
	if c.acted {
		panic(fmt.Sprintf("sim: node %d Stepper called Done after acting in the same Step", c.id))
	}
	c.ended = true
}

// Emit records an instrumentation event tagged with the current slot.
func (c *StepCtx) Emit(name string, value int) {
	c.engine.emit(Event{Slot: c.slot, Node: c.id, Name: name, Value: value})
}

// put records the node's primitive for this slot and returns its pending
// entry for the caller to fill in; fields the kind does not use keep stale
// values the engine never reads (Send reads a stale msg as the node's
// previous transmission).
func (c *StepCtx) put(kind actKind) *action {
	if c.acted || c.ended {
		panic(fmt.Sprintf("sim: node %d Stepper performed a second primitive in one Step", c.id))
	}
	c.acted = true
	a := &c.rs.pending[c.id]
	a.kind = kind
	return a
}

// stepNode drives one awake stepped node through one slot: crash check,
// then Step, then the act-or-done contract check. It writes only node-local
// state (sc, pending[id], done[id]), so distinct nodes may be stepped from
// distinct workers.
func (c *StepCtx) stepNode(slot int) {
	c.slot = slot
	if slot >= c.crashAt {
		// A crashed node powers down instead of acting: at its first awake
		// slot at or past the crash slot, which for a sleeper is the end of
		// the IdleFor batch it slept through (an idling node is externally
		// indistinguishable from a dead one).
		c.rs.done[c.id] = true
		return
	}
	c.acted = false
	c.stepper.Step(c)
	if c.ended {
		c.rs.done[c.id] = true
		return
	}
	if !c.acted {
		panic("sim: Stepper.Step returned without acting (must Transmit, Listen, Idle, IdleFor, or Done)")
	}
}

// parallelStepMin is the awake-population size below which a slot's Step
// calls run serially even on multicore: fan-out costs more than it saves.
const parallelStepMin = 4096

// stepChunk is the work-stealing granule of the parallel step phase.
const stepChunk = 512

// runState is the engine-private node state of one run. In the step phase
// every awake node writes only its own entries — pending[i] (its action)
// and done[i] (set when it powers down) — so distinct nodes may be stepped
// from distinct workers; the engine then reads both and writes listeners'
// results back.
type runState struct {
	ctxs    []StepCtx // indexed by node
	pending []action
	results []phy.Reception
	done    []bool
	// listenUntil is the slot a node in a ListenFor batch steps again in
	// (its batch's end, or its crash slot if that comes first), zeroed
	// when it decodes; at or below the current slot for every other node.
	listenUntil []int
	// awake lists the nodes to drive this slot in ascending node order
	// (the collect pass reads actions in this order). Its capacity holds
	// every node, so wake merges into it in place.
	awake   []int32
	workers int

	// panicked is the first panic out of any step worker, as the run
	// error; mu guards it during the step phase.
	mu       sync.Mutex
	panicked error
}

func newRunState(e *Engine, steppers []Stepper) (*runState, error) {
	n := len(steppers)
	rs := &runState{
		ctxs:    make([]StepCtx, n),
		pending: make([]action, n),
		results: make([]phy.Reception, n),
		done:    make([]bool, n),
		awake:   make([]int32, n),

		listenUntil: make([]int, n),
		workers:     runtime.GOMAXPROCS(0),
	}
	rands := rng.Streams(e.seed, n)
	for i, st := range steppers {
		if st == nil {
			return nil, fmt.Errorf("sim: nil stepper for node %d", i)
		}
		rs.awake[i] = int32(i)
		sc := &rs.ctxs[i]
		*sc = StepCtx{
			Rand:    rands[i],
			id:      i,
			engine:  e,
			rs:      rs,
			stepper: st,
			crashAt: math.MaxInt,
		}
		if e.Faults != nil {
			sc.crashAt = e.Faults.CrashSlot(i)
		}
	}
	return rs, nil
}

// stepAll drives every awake node through the given slot. With enough
// awake nodes and spare procs, the calls fan out across workers in chunks
// (safe because each call touches only node-local state, and
// transcript-neutral because actions land in per-node slots that the
// engine scans in node order regardless). A panicking Step abandons the
// rest of its worker's share; the engine aborts the run right after, so
// the unstepped remainder never resolves.
func (rs *runState) stepAll(slot int) {
	awake := rs.awake
	if rs.workers <= 1 || len(awake) < parallelStepMin {
		rs.stepRange(awake, slot)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := rs.workers
	if max := (len(awake) + stepChunk - 1) / stepChunk; workers > max {
		workers = max
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(stepChunk)) - stepChunk
				if lo >= len(awake) {
					return
				}
				hi := lo + stepChunk
				if hi > len(awake) {
					hi = len(awake)
				}
				rs.stepRange(awake[lo:hi], slot)
			}
		}()
	}
	wg.Wait()
}

func (rs *runState) stepRange(ids []int32, slot int) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			rs.mu.Lock()
			if rs.panicked == nil {
				rs.panicked = fmt.Errorf("sim: node %d panicked: %v", cur, r)
			}
			rs.mu.Unlock()
		}
	}()
	for _, id := range ids {
		if slot < rs.listenUntil[id] {
			// Mid-ListenFor batch: the node's pending listen stands for
			// this slot too, with no Step call.
			continue
		}
		cur = int(id)
		rs.ctxs[id].stepNode(slot)
	}
}

// wake merges the nodes due this slot into the awake list, keeping it in
// node order. due comes off the wheel in registration order, so it is
// sorted first.
func (rs *runState) wake(due []int32) {
	slices.Sort(due)
	rs.merge(due)
}

// merge merges the ascending ids into the awake list in place, from the
// back: awake's capacity covers every node, and a node is never both awake
// and due.
func (rs *runState) merge(ids []int32) {
	a := rs.awake
	i, j := len(a)-1, len(ids)-1
	a = a[:len(a)+len(ids)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > ids[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = ids[j]
			j--
		}
	}
	rs.awake = a
}
