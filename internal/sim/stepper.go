package sim

// This file implements the goroutine-free execution mode: Stepper nodes
// hold their protocol state in explicit structs and are driven inline by
// the engine, one Step call per slot, instead of running as parked
// goroutines. At crowd scale this removes the per-node stack (kilobytes per
// node) and the park/unpark pair per node per slot that dominate the
// goroutine mode's slot cost.
//
// Equivalence by construction: a Step call deposits its action into the
// same per-node pending slot a goroutine's primitive would have, the engine
// scans pending in node order either way, and all randomness comes from the
// same per-node stream — so for a correctly ported protocol the resolved
// transcript is bit-identical to the goroutine form, regardless of how many
// workers drive the Step calls. TestSteppedEngineEquivalence and the
// facade's TestAggregateSteppedIdentity pin this.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/rng"
)

// Stepper is the goroutine-free form of a node protocol. The engine calls
// Step once per slot in which the node is awake; each call must perform
// exactly one primitive on sc — Transmit, Listen, Idle, or IdleFor — or
// call Done to power the node down for the rest of the run. After an
// IdleFor(k), the next Step call comes k slots later.
//
// A Stepper must draw randomness only from sc.Rand and must not retain sc
// across calls. If it listened in the previous acting slot, sc.Prev holds
// that slot's reception; consume it before doing anything else (including
// drawing randomness) to stay bit-identical with the equivalent goroutine
// Program, whose post-Listen code runs before its next primitive.
type Stepper interface {
	Step(sc *StepCtx)
}

// Frag is a resumable protocol fragment used to compose Steppers out of
// stage-sized pieces. Feed either deposits exactly one primitive on sc and
// returns false (the fragment still owns the node's slots), or finalizes
// without acting and returns true — the caller then advances to the next
// fragment within the same Step call, so stage boundaries consume no extra
// slots, exactly like consecutive calls in a goroutine Program.
type Frag interface {
	Feed(sc *StepCtx) bool
}

// IdleFrag is the Frag form of "idle through a stage budget": one
// IdleFor(K) batch, then done. A K ≤ 0 finalizes immediately without
// consuming a slot, mirroring goroutine IdleFor's no-op on k ≤ 0.
type IdleFrag struct {
	K    int
	done bool
}

// Feed implements Frag.
func (f *IdleFrag) Feed(sc *StepCtx) bool {
	if f.done || f.K <= 0 {
		return true
	}
	f.done = true
	sc.IdleFor(f.K)
	return false
}

// StepCtx is a stepped node's handle to the simulator — the Stepper-mode
// counterpart of Ctx. The engine owns it; Steppers use it only inside Step.
type StepCtx struct {
	// Rand is this node's private random stream — the same stream the
	// equivalent goroutine Program would draw from.
	Rand *rand.Rand

	id      int
	engine  *Engine
	params  model.Params
	rs      *roundState
	stepper Stepper
	slot    int
	crashAt int
	acted   bool
	ended   bool
}

// ID returns this node's index (the model's unique node ID).
func (c *StepCtx) ID() int { return c.id }

// Params returns the model parameters known to the node.
func (c *StepCtx) Params() model.Params { return c.params }

// Slot returns the slot the current Step call is acting in. It matches
// Ctx.Slot at the same point of the equivalent goroutine Program: the code
// that runs after a Listen returns (and before the next primitive) sees the
// slot after the listen.
func (c *StepCtx) Slot() int { return c.slot }

// Prev returns the reception delivered to this node's most recent Listen.
// It is only meaningful at the start of the Step call that follows a Listen;
// after a Transmit or Idle the contents are stale.
func (c *StepCtx) Prev() phy.Reception { return c.rs.results[c.id] }

// Transmit sends msg on the given channel for this slot.
func (c *StepCtx) Transmit(channel int, msg any) {
	c.put(action{kind: actTransmit, ch: channel, msg: msg})
}

// Listen receives on the given channel for this slot; the reception is
// available as Prev at the start of the next Step call.
func (c *StepCtx) Listen(channel int) {
	c.put(action{kind: actListen, ch: channel})
}

// Idle does nothing for this slot (radio off).
func (c *StepCtx) Idle() {
	c.put(action{kind: actIdle})
}

// IdleFor idles for k consecutive slots; the next Step call comes k slots
// later. k ≤ 0 is a no-op (the Step call must still act), matching the
// goroutine primitive.
func (c *StepCtx) IdleFor(k int) {
	if k == 1 {
		c.Idle()
		return
	}
	if k <= 0 {
		return
	}
	c.put(action{kind: actIdleLong, count: k})
}

// Done powers the node down for the remainder of the run, like a goroutine
// Program returning. It is final and performs no primitive: a Step call
// must either act or call Done, never both.
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

func (c *StepCtx) put(a action) {
	if c.acted || c.ended {
		panic(fmt.Sprintf("sim: node %d Stepper performed a second primitive in one Step", c.id))
	}
	c.acted = true
	c.rs.pending[c.id] = a
}

// stepNode drives one awake stepped node through one slot: crash check,
// then Step, then the act-or-done contract check. It writes only node-local
// state (sc, pending[id], done[id]), so distinct nodes may be stepped from
// distinct workers.
func (c *StepCtx) stepNode(slot int) {
	c.slot = slot
	if slot >= c.crashAt {
		// A crashed node powers down instead of acting — the same boundary
		// a goroutine node observes at its next primitive (or at the end of
		// the IdleFor batch it slept through).
		c.rs.done[c.id].Store(true)
		return
	}
	c.acted = false
	c.stepper.Step(c)
	if c.ended {
		c.rs.done[c.id].Store(true)
		return
	}
	if !c.acted {
		panic("sim: Stepper.Step returned without acting (must Transmit, Listen, Idle, IdleFor, or Done)")
	}
}

// Stepped-node scheduling states, tracked per node in steppedRun.state.
const (
	stepAwake uint8 = iota
	stepSleeping
	stepDead
)

// panicRecorder captures the first panic out of any node — goroutine or
// step worker — for the engine to surface as the run error.
type panicRecorder struct {
	mu    sync.Mutex
	first error
}

func (p *panicRecorder) record(node int, r any) {
	p.mu.Lock()
	if p.first == nil {
		p.first = fmt.Errorf("sim: node %d panicked: %v", node, r)
	}
	p.mu.Unlock()
}

func (p *panicRecorder) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// parallelStepMin is the awake-population size below which a slot's Step
// calls run serially even on multicore: fan-out costs more than it saves.
const parallelStepMin = 4096

// stepChunk is the work-stealing granule of the parallel step phase.
const stepChunk = 512

// steppedRun is the engine-private state of one run's stepped population.
type steppedRun struct {
	ctxs    []StepCtx // indexed by node
	state   []uint8   // node → stepAwake/stepSleeping/stepDead
	awake   []int32   // nodes to drive this slot, compacted after each scan
	workers int
}

func newSteppedRun(e *Engine, rs *roundState, steppers []Stepper, nodeParams model.Params) (*steppedRun, error) {
	n := len(steppers)
	sr := &steppedRun{
		ctxs:    make([]StepCtx, n),
		state:   make([]uint8, n),
		awake:   make([]int32, n),
		workers: runtime.GOMAXPROCS(0),
	}
	rands := rng.Streams(e.seed, n)
	for i, st := range steppers {
		if st == nil {
			return nil, fmt.Errorf("sim: nil stepper for node %d", i)
		}
		sr.awake[i] = int32(i)
		sc := &sr.ctxs[i]
		*sc = StepCtx{
			Rand:    rands[i],
			id:      i,
			engine:  e,
			params:  nodeParams,
			rs:      rs,
			stepper: st,
			crashAt: math.MaxInt,
		}
		if e.Faults != nil {
			sc.crashAt = e.Faults.CrashSlot(i)
		}
	}
	return sr, nil
}

// stepAll drives every awake stepped node through the given slot. It runs
// in the engine's quiescent window; with enough awake nodes and spare
// procs, the calls fan out across workers in chunks (safe because each call
// touches only node-local state, and transcript-neutral because actions
// land in per-node slots that the engine scans in node order regardless).
// A panicking Step abandons the rest of its worker's share; the engine
// aborts the run right after, so the unstepped remainder never resolves.
func (sr *steppedRun) stepAll(slot int, rec *panicRecorder) {
	awake := sr.awake
	if sr.workers <= 1 || len(awake) < parallelStepMin {
		sr.stepRange(awake, slot, rec)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := sr.workers
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
				sr.stepRange(awake[lo:hi], slot, rec)
			}
		}()
	}
	wg.Wait()
}

func (sr *steppedRun) stepRange(ids []int32, slot int, rec *panicRecorder) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			rec.record(cur, r)
		}
	}()
	for _, id := range ids {
		cur = int(id)
		sr.ctxs[id].stepNode(slot)
	}
}

// compact drops nodes that went to sleep or died from the awake list,
// preserving order. Runs once per scanned slot, after the engine has
// classified every pending action.
func (sr *steppedRun) compact() {
	kept := sr.awake[:0]
	for _, id := range sr.awake {
		if sr.state[id] == stepAwake {
			kept = append(kept, id)
		}
	}
	sr.awake = kept
}
