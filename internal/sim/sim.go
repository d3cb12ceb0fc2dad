// Package sim provides the synchronous multi-channel network simulator.
//
// Per slot, every live node performs exactly one primitive — Transmit,
// Listen, or Idle — and the engine collects one action from every live
// node, resolves the slot with the SINR layer (internal/phy), and delivers
// the outcomes. This matches the paper's synchronized-round model (Sec. 2):
// in each slot a node selects one of the F channels and either transmits or
// listens on it.
//
// # Execution modes
//
// A node protocol comes in two interchangeable forms:
//
//   - A goroutine Program: ordinary sequential Go code in its own
//     goroutine, blocking at each primitive until the slot resolves. The
//     natural way to write a protocol, at the cost of one stack and one
//     park/unpark per node per slot.
//   - A Stepper: protocol state in an explicit struct, driven inline by the
//     engine with one Step call per slot — no goroutine, no stack, no
//     parking. The default form of the aggregation pipeline and of the
//     Sec. 7 coloring (see stepper.go).
//
// A run holds one form for its whole population — Run takes Programs,
// RunSteppers takes Steppers — and both forms produce bit-identical
// transcripts by construction: either way actions land in per-node pending
// slots that the engine scans in node order, so the scheduler decides when
// a node's action lands, never the resolved transcript. The goroutine form
// is the reference oracle the stepped ports are checked against.
//
// # Slot barrier
//
// A slot costs one synchronization round, not one rendezvous per node:
// goroutine nodes deposit their action into a shared per-node slot (no
// contention — node i writes only index i) and arrive at a single packed
// atomic word (barrier.go); the last arriver hands the engine a single wake
// token, and after resolution the engine releases all of them at once by
// closing the slot's release channel. Each node therefore parks at most
// once per slot, and the engine parks once, instead of the two blocking
// channel handoffs per node per slot of a naive design. Stepped runs have
// no barrier at all — the engine drives the nodes inside its own loop.
//
// # Idle wake-wheel
//
// IdleFor(k) takes a node out of circulation for k slots: off the barrier
// (goroutine form) or off the awake list (stepped form), registered in a
// calendar queue keyed by wake slot (wheel.go). Sleeping nodes cost nothing
// per slot; the engine pops one wheel bucket per slot to wake the nodes
// whose batch just ended, so mixed active/idle populations fast-forward
// past the sleepers.
//
// Determinism: node programs draw randomness only from ctx.Rand, a per-node
// stream derived from (run seed, node ID), and slot resolution is
// order-independent, so a run's transcript is a pure function of (seed,
// topology, programs) regardless of goroutine scheduling.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/rng"
)

// Program is the protocol executed by one node. It runs in its own
// goroutine; returning means the node powers down for the remainder of the
// run (it neither transmits nor listens).
type Program func(ctx *Ctx)

// Event is an instrumentation record emitted by a node via Ctx.Emit.
// Events are for measurement only; protocols must not read them.
type Event struct {
	Slot  int
	Node  int
	Name  string
	Value int
}

// TraceFn observes every resolved slot. Slices are only valid during the
// call.
type TraceFn func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception)

// FaultInjector perturbs slot resolution (see internal/fault). All methods
// are called from the engine goroutine — BeginSlot before each slot is
// resolved, FilterTransmission once per collected transmission (in node
// order) before resolution, FilterReception once per listener (in node
// order) after resolution and before Trace observes the slot — except
// CrashSlot, which is read once per node at run start. Because both
// execution modes funnel through the engine's single resolve loop, these
// call sites and their ordering are identical under goroutine and stepped
// execution; implementations must be deterministic functions of their own
// seed, the (slot, node, channel) arguments, and state observed through
// these same calls, so transcripts stay reproducible.
type FaultInjector interface {
	// BeginSlot runs before the slot is resolved and may reconfigure
	// per-slot channel jamming on the field.
	BeginSlot(slot int, field *phy.Field)
	// FilterTransmission may rewrite a transmission's message (Byzantine
	// corruption or equivocation) or remove it from the slot entirely by
	// returning ok == false (a dropped transmission radiates no power).
	FilterTransmission(slot int, tx phy.Tx) (out phy.Tx, ok bool)
	// FilterReception may suppress or degrade one listener's reception on
	// the given channel.
	FilterReception(slot, node, channel int, rec phy.Reception) phy.Reception
	// CrashSlot returns the first slot at which the node is dead — it
	// performs no radio action at that slot or later — or a value above
	// any reachable slot if the node never crashes.
	CrashSlot(node int) int
}

// Engine drives a set of node programs over a phy.Field.
type Engine struct {
	// MaxSlots aborts the run if programs have not all returned by then.
	// Zero means DefaultMaxSlots.
	MaxSlots int
	// Trace, when non-nil, observes every resolved slot.
	Trace TraceFn
	// NodeParams, when non-nil, is what Ctx.Params reports to protocols
	// instead of the field's true parameters — the Sec. 2 setting where
	// nodes know only (possibly conservative) estimates of the SINR
	// parameters while physics follows the truth.
	NodeParams *model.Params
	// EventSink, when non-nil, observes every event as it is emitted, in
	// addition to the recorded Events() log. Calls are serialized (one at a
	// time) but may come from any node's goroutine and stall that node's
	// slot; keep sinks fast.
	EventSink func(Event)
	// Faults, when non-nil, injects message loss, channel jamming and node
	// crashes into every run (see internal/fault). Set it before Run; a
	// zero-intensity injector leaves transcripts bit-identical to running
	// with Faults == nil.
	Faults FaultInjector

	field *phy.Field
	seed  uint64

	mu     sync.Mutex
	events []Event
	// sinkMu serializes EventSink calls without holding mu, so a slow sink
	// cannot stall Events()/ResetEvents() and a sink may safely read them.
	sinkMu sync.Mutex
}

// DefaultMaxSlots bounds runaway runs; protocols in this repo all use
// explicit schedules far below it.
const DefaultMaxSlots = 1 << 22

// NewEngine creates an engine over the given field. The seed determines all
// protocol randomness.
func NewEngine(field *phy.Field, seed uint64) *Engine {
	return &Engine{field: field, seed: seed}
}

// Field returns the engine's physical layer.
func (e *Engine) Field() *phy.Field { return e.field }

// Events returns the instrumentation events emitted during runs so far.
// Ordering between different nodes' events within a slot is unspecified.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// ResetEvents discards recorded events.
func (e *Engine) ResetEvents() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = nil
}

func (e *Engine) emit(ev Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	sink := e.EventSink
	e.mu.Unlock()
	if sink != nil {
		e.sinkMu.Lock()
		sink(ev)
		e.sinkMu.Unlock()
	}
}

type actKind uint8

const (
	actTransmit actKind = iota
	actListen
	actIdle
	// actIdleLong declares an IdleFor batch: the node idles for count
	// consecutive slots and leaves the barrier until they elapse, parking
	// once instead of once per slot.
	actIdleLong
	// actIdleHold marks a node mid-batch: the engine rewrites actIdleLong
	// to this after registering the wakeup, so continuation slots treat the
	// node as idle without re-registering it.
	actIdleHold
)

type action struct {
	kind actKind
	ch   int
	msg  any
	// count is the slot span of an actIdleLong batch.
	count int
}

// stopSignal is the sentinel panic used to unwind node goroutines when the
// engine aborts a run.
type stopSignal struct{}

// roundState is the shared per-slot state of one run. Per slot, every live
// node deposits an action into pending (its own index only). Goroutine
// Program nodes then arrive at the barrier (see barrier.go), or terminate
// and arrive once through their goroutine's deferred cleanup; the arrival
// that completes the count hands the engine the single wake token. The
// engine then owns all shared state until it releases the slot by closing
// the release channel — a quiescent window in which it reads pending,
// retires terminated nodes, adjusts the expected count, writes results, and
// swaps in the next release channel. Stepper nodes deposit their actions
// from inside that window and never touch the barrier fields.
type roundState struct {
	pending []action        // node i writes pending[i] before arriving
	results []phy.Reception // engine writes, node i reads after release
	done    []atomic.Bool   // set by node i on termination

	// gate packs the barrier counters into one word: the high half holds
	// how many arrivals complete the slot (= live, non-idling nodes), the
	// low half counts arrivals so far. The engine rewrites both halves
	// together between slots; arrivals increment the low half and compare
	// the halves of the same atomic snapshot.
	gate    atomic.Uint64
	wake    chan struct{}                 // capacity 1: the completing arrival → engine
	release atomic.Pointer[chan struct{}] // closed by the engine per slot

	// idleWake[i] wakes node i out of an IdleFor batch (capacity 1; only
	// the engine sends, only node i receives).
	idleWake []chan struct{}

	// aborted is the fast-path abort flag sampled at every step; stop is
	// its channel form, selected on by parked idle batches.
	aborted atomic.Bool
	stop    chan struct{} // closed when the engine aborts the run
}

// Run executes one program per node until all programs return, then reports
// the number of slots consumed. Every run starts at slot 0.
func (e *Engine) Run(programs []Program) (slots int, err error) {
	return e.run(context.Background(), programs, nil)
}

// RunContext is like Run but aborts the round loop as soon as ctx is
// cancelled, returning ctx.Err(). Cancellation is observed between slots and
// while waiting for node actions, so it takes effect promptly even during
// long schedules.
func (e *Engine) RunContext(ctx context.Context, programs []Program) (slots int, err error) {
	return e.run(ctx, programs, nil)
}

// RunSteppers executes one Stepper per node in the goroutine-free mode —
// the Stepper-form counterpart of Run, with identical semantics and (for a
// faithfully ported protocol) an identical transcript.
func (e *Engine) RunSteppers(steppers []Stepper) (slots int, err error) {
	return e.run(context.Background(), nil, steppers)
}

// RunSteppersContext combines RunSteppers and RunContext.
func (e *Engine) RunSteppersContext(ctx context.Context, steppers []Stepper) (slots int, err error) {
	return e.run(ctx, nil, steppers)
}

// run drives one run. Exactly one of programs and steppers is non-nil, so
// the whole population is either goroutine Program nodes (a nil Program
// powers down immediately) or Stepper nodes; stepped records which.
func (e *Engine) run(ctx context.Context, programs []Program, steppers []Stepper) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := e.field.N()
	if n == 0 {
		return 0, nil
	}
	stepped := steppers != nil
	if stepped && len(steppers) != n {
		return 0, fmt.Errorf("sim: %d steppers for %d nodes", len(steppers), n)
	}
	if !stepped && len(programs) != n {
		return 0, fmt.Errorf("sim: %d programs for %d nodes", len(programs), n)
	}
	maxSlots := e.MaxSlots
	if maxSlots <= 0 {
		maxSlots = DefaultMaxSlots
	}

	rs := &roundState{
		pending: make([]action, n),
		results: make([]phy.Reception, n),
		done:    make([]atomic.Bool, n),
	}
	rec := &panicRecorder{}
	nodeParams := e.field.Params()
	if e.NodeParams != nil {
		nodeParams = *e.NodeParams
	}

	// expectCount is how many barrier arrivals complete the current slot:
	// the live, non-idling goroutine nodes. A stepped run has no barrier, so
	// it stays 0 and the engine never waits for a wake token.
	expectCount := 0
	var (
		sr *steppedRun
		wg sync.WaitGroup
	)
	if stepped {
		var err error
		if sr, err = newSteppedRun(e, rs, steppers, nodeParams); err != nil {
			return 0, err
		}
	} else {
		expectCount = n
		e.startPrograms(rs, programs, nodeParams, rec, &wg)
	}

	abort := func() {
		if stepped {
			// Stepped nodes need no unwinding — the engine simply stops
			// driving them.
			return
		}
		rs.aborted.Store(true)
		close(rs.stop)
		// Free every parked node: steps sample the abort flag before
		// blocking, so anything released here unwinds at its next step.
		close(*rs.release.Load())
		wg.Wait()
	}

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	// nActive counts live nodes and decides termination; idling counts the
	// live nodes asleep mid-IdleFor. The wheel holds every sleeping node,
	// keyed by the slot it acts again in.
	nActive := n
	idling := 0
	wheel := newWakeWheel(n)
	due := make([]int32, 0, 64)

	// The run's slot arena: action and reception buffers sized for every
	// node once up front, and the field's struct-of-arrays / grid-bin
	// scratch presized to match, so the steady-state slot pipeline —
	// collect, resolve, deliver — allocates nothing.
	txs := make([]phy.Tx, 0, n)
	rxs := make([]phy.Rx, 0, n)
	e.field.Reserve(n, n)

	slot := 0
	for used := 0; ; used++ {
		txs, rxs = txs[:0], rxs[:0]
		if expectCount > 0 {
			// One wake token per slot: the last arrival of the barrier.
			// From here until the release at the bottom of the loop every
			// live program node is parked, so the engine owns all shared
			// state.
			select {
			case <-rs.wake:
			case <-ctx.Done():
				abort()
				return slot, ctx.Err()
			}
		}
		// Drive the awake stepped nodes inline: each deposits its action for
		// this slot into pending, exactly where a goroutine node's primitive
		// would have put it.
		if stepped && len(sr.awake) > 0 {
			sr.stepAll(slot, rec)
		}
		if pErr := rec.get(); pErr != nil {
			abort()
			return slot, pErr
		}
		if expectCount > 0 || (stepped && len(sr.awake) > 0) {
			// Collect the slot while retiring terminated nodes and
			// registering fresh IdleFor batches — one fused pass over the
			// node set.
			for i := 0; i < n; i++ {
				if !active[i] {
					continue
				}
				if rs.done[i].Load() {
					active[i] = false
					nActive--
					if stepped {
						sr.state[i] = stepDead
					}
					continue
				}
				switch rs.pending[i].kind {
				case actTransmit:
					txs = append(txs, phy.Tx{Node: i, Channel: rs.pending[i].ch, Msg: rs.pending[i].msg})
				case actListen:
					rxs = append(rxs, phy.Rx{Node: i, Channel: rs.pending[i].ch})
				case actIdleLong:
					// A fresh IdleFor batch: the node idles from this slot
					// through slot+count-1 and sleeps through those slots.
					end := slot + rs.pending[i].count - 1
					wheel.add(i, end+1)
					rs.pending[i].kind = actIdleHold
					idling++
					if stepped {
						sr.state[i] = stepSleeping
					}
				}
			}
			if stepped {
				sr.compact()
			}
			if nActive == 0 {
				return slot, nil
			}
		}
		// else: every live node sleeps mid-IdleFor — nothing can arrive,
		// terminate, or panic, so the engine advances the (empty) slot
		// directly.
		if err := ctx.Err(); err != nil {
			abort()
			return slot, err
		}
		if used >= maxSlots {
			abort()
			return slot, fmt.Errorf("sim: exceeded MaxSlots = %d with %d nodes still live", maxSlots, nActive)
		}

		if e.Faults != nil {
			e.Faults.BeginSlot(slot, e.field)
			// Byzantine corruption point: each transmission may be rewritten
			// or removed before the SINR layer sees it. txs is in node order
			// (the collect pass scans nodes ascending), so the injector's
			// call sequence is identical across exec modes and worker counts.
			kept := txs[:0]
			for _, tx := range txs {
				if ftx, ok := e.Faults.FilterTransmission(slot, tx); ok {
					kept = append(kept, ftx)
				}
			}
			txs = kept
		}
		recs := e.field.Resolve(txs, rxs)
		if e.Faults != nil {
			// Apply the loss process before Trace so observers and nodes
			// see the same post-fault world. recs is the field's scratch;
			// rewriting it in place is safe until the next Resolve.
			for k := range recs {
				recs[k] = e.Faults.FilterReception(slot, rxs[k].Node, rxs[k].Channel, recs[k])
			}
		}
		if e.Trace != nil {
			e.Trace(slot, txs, rxs, recs)
		}

		// Deliver outcomes. Only listeners observe their result slot —
		// Transmit and Idle discard it — so non-listen entries keep their
		// stale contents untouched.
		ri := 0
		for i := 0; i < n && ri < len(rxs); i++ {
			if active[i] && rs.pending[i].kind == actListen {
				rs.results[i] = recs[ri]
				ri++
			}
		}
		slot++

		// Open the next slot. Sleepers due now pop off the wheel: stepped
		// nodes rejoin the awake list and get stepped at the top of the
		// loop; program nodes rejoin the barrier before the release and are
		// woken through their private channels after it.
		due = wheel.pop(slot, due[:0])
		idling -= len(due)
		if stepped {
			for _, id := range due {
				sr.state[id] = stepAwake
				sr.awake = append(sr.awake, id)
			}
			continue
		}
		// Release everyone at once. Order matters: the gate must be current
		// and the new release channel installed before the old one closes,
		// because released nodes re-enter the barrier immediately.
		expectCount = nActive - idling
		rs.openGate(expectCount)
		next := make(chan struct{})
		old := rs.release.Load()
		rs.release.Store(&next)
		close(*old)
		for _, id := range due {
			rs.idleWake[id] <- struct{}{}
		}
	}
}

// startPrograms launches one goroutine per Program node (a nil Program
// powers down immediately) and arms the barrier for the first slot with
// every node expected.
func (e *Engine) startPrograms(rs *roundState, programs []Program, nodeParams model.Params, rec *panicRecorder, wg *sync.WaitGroup) {
	n := len(programs)
	rs.wake = make(chan struct{}, 1)
	rs.stop = make(chan struct{})
	rs.openGate(n)
	rel := make(chan struct{})
	rs.release.Store(&rel)
	rs.idleWake = make([]chan struct{}, n)
	// One contiguous Ctx arena instead of one allocation per node, and
	// one flat generator arena instead of two allocations per node.
	ctxs := make([]Ctx, n)
	rands := rng.Streams(e.seed, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		rs.idleWake[i] = make(chan struct{}, 1)
		nctx := &ctxs[i]
		*nctx = Ctx{
			id:      i,
			engine:  e,
			params:  nodeParams,
			Rand:    rands[i],
			rs:      rs,
			crashAt: math.MaxInt,
		}
		if e.Faults != nil {
			nctx.crashAt = e.Faults.CrashSlot(i)
		}
		go func(i int, nctx *Ctx, prog Program) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r != nil {
					if _, isStop := r.(stopSignal); !isStop {
						rec.record(i, r)
					}
				}
				// Terminating counts as this node's arrival for the slot
				// in progress; the done flag is set first so the engine
				// retires the node before resolving.
				rs.done[i].Store(true)
				rs.arrive()
			}()
			if prog != nil {
				prog(nctx)
			}
		}(i, nctx, programs[i])
	}
}

// Ctx is a node's handle to the simulator, passed to its Program.
type Ctx struct {
	// Rand is this node's private random stream.
	Rand *rand.Rand

	id     int
	engine *Engine
	params model.Params
	rs     *roundState
	slot   int
	// crashAt is the first slot at which this node is dead (fault
	// injection); math.MaxInt for immortal nodes. A node at or past its
	// crash slot unwinds at its next primitive instead of acting — an
	// idling node is externally indistinguishable from a dead one, so the
	// boundary of an IdleFor batch is a faithful crash point.
	crashAt int
}

// ID returns this node's index (the model's unique node ID).
func (c *Ctx) ID() int { return c.id }

// Params returns the model parameters known to the node (SINR ranges,
// channel count, and the polynomial estimate of n).
func (c *Ctx) Params() model.Params { return c.params }

// Slot returns the number of completed slots from this node's perspective.
func (c *Ctx) Slot() int { return c.slot }

// Transmit sends msg on the given channel for one slot. A transmitting node
// learns nothing about concurrent events (no transmitter-side detection).
func (c *Ctx) Transmit(channel int, msg any) {
	c.step(action{kind: actTransmit, ch: channel, msg: msg})
}

// Listen receives on the given channel for one slot and returns what was
// observed.
func (c *Ctx) Listen(channel int) phy.Reception {
	return c.step(action{kind: actListen, ch: channel, msg: nil})
}

// Idle does nothing for one slot (radio off).
func (c *Ctx) Idle() {
	c.step(action{kind: actIdle})
}

// IdleFor idles for k consecutive slots. Long batches cost one
// synchronization instead of one per slot: the node leaves the barrier for
// the batch's span and is woken when it ends, which is what makes the
// TDMA-stride and stage-skipping idles of the pipeline cheap.
func (c *Ctx) IdleFor(k int) {
	if k == 1 {
		c.Idle()
		return
	}
	if k <= 0 {
		return
	}
	rs := c.rs
	if rs.aborted.Load() {
		panic(stopSignal{})
	}
	if c.slot >= c.crashAt {
		panic(stopSignal{})
	}
	rs.pending[c.id] = action{kind: actIdleLong, count: k}
	rs.arrive()
	select {
	case <-rs.idleWake[c.id]:
		// The select can win this race against a concurrent abort; don't
		// resume a run the engine already gave up on.
		if rs.aborted.Load() {
			panic(stopSignal{})
		}
	case <-rs.stop:
		panic(stopSignal{})
	}
	c.slot += k
}

// Emit records an instrumentation event tagged with the current slot.
func (c *Ctx) Emit(name string, value int) {
	c.engine.emit(Event{Slot: c.slot, Node: c.id, Name: name, Value: value})
}

func (c *Ctx) step(a action) phy.Reception {
	rs := c.rs
	// An abort unwinds here, without arriving, so a stale action never
	// lands in a live barrier. Checking a flag (instead of selecting on
	// stop below) keeps the hot path on a plain channel receive; abort
	// closes the current release channel, so a node parked below still
	// wakes and unwinds on its next step.
	if rs.aborted.Load() {
		panic(stopSignal{})
	}
	// A crashed node powers down instead of acting: the stop-signal unwind
	// runs the goroutine's termination path, so the engine retires it like
	// a program that returned.
	if c.slot >= c.crashAt {
		panic(stopSignal{})
	}
	// The release channel must be sampled before arriving: after the
	// arrival that completes the barrier, the engine may swap in the next
	// slot's channel at any moment.
	rel := rs.release.Load()
	rs.pending[c.id] = a
	rs.arrive()
	<-*rel
	// An abort also closes the release channel to free parked nodes; their
	// slot was never resolved, so unwind instead of handing the program a
	// stale reception from an earlier slot.
	if rs.aborted.Load() {
		panic(stopSignal{})
	}
	c.slot++
	return rs.results[c.id]
}
