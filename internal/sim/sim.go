// Package sim provides the synchronous multi-channel network simulator.
//
// Per slot, every live node performs exactly one primitive — Transmit,
// Listen, or Idle — and the engine collects one action from every live
// node, resolves the slot with the SINR layer (internal/phy), and delivers
// the outcomes. This matches the paper's synchronized-round model (Sec. 2):
// in each slot a node selects one of the F channels and either transmits or
// listens on it.
//
// # Steppers
//
// A node protocol is a Stepper: its state lives in an explicit struct, and
// the engine drives it inline with one Step call per slot in which the node
// is awake — no goroutine, no stack and no parking per node. Each Step
// deposits the node's action for the slot into its own pending entry, and
// the engine scans the pending entries in node order, so the resolved
// transcript never depends on how many workers drove the Step calls
// (stepper.go). Protocols are composed from stage-sized Frags; each stage's
// run constants, its slot Window included, are compiled once per plan, so a
// Frag holds only per-node state.
//
// # Idle wake-wheel
//
// IdleFor(k) takes a node out of circulation for k slots: off the awake
// list, registered in a calendar queue keyed by wake slot (wheel.go).
// Sleeping nodes cost nothing per slot; the engine pops one wheel bucket
// per slot to wake the nodes whose batch just ended and merges them into
// the awake list, which it keeps in node order. Every per-slot pass —
// step, collect, deliver, wake — walks only the awake nodes or the slot's
// actions, so a slot costs O(awake), not O(n), and mixed active/idle
// populations fast-forward past the sleepers.
//
// Protocols make this pay by sleeping through every stretch they can prove
// idle (see Stepper): one IdleFor up to the next draw, listen or transmit,
// never past the end of the current stage's Window, and with no Rand draw
// skipped or reordered. A node that sits a stage out sleeps through its
// whole Window in one IdleFor. The transcript is the same as idling slot
// by slot; only the Step calls go away.
//
// # Listening rule
//
// A node listens only while it can still use what it hears: a listen whose
// reception the protocol would provably discard is an Idle instead (see
// Stepper). The SINR layer evaluates one interference sum per listener, so
// an inert listener is pure resolution cost; dropping it removes only its
// listener entries from the transcript.
//
// Determinism: Steppers draw randomness only from StepCtx.Rand, a per-node
// stream derived from (run seed, node ID), and slot resolution is
// order-independent, so a run's transcript is a pure function of (seed,
// topology, steppers) regardless of the step workers' scheduling.
package sim

import (
	"context"
	"fmt"
	"sync"

	"mcnet/internal/phy"
)

// Event is an instrumentation record emitted by a node via StepCtx.Emit.
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
// CrashSlot, which is read once per node at run start. Implementations must
// be deterministic functions of their own seed, the (slot, node, channel)
// arguments, and state observed through these same calls, so transcripts
// stay reproducible.
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

// Engine drives a set of node Steppers over a phy.Field.
type Engine struct {
	// MaxSlots aborts the run if the nodes have not all powered down by
	// then. Zero means DefaultMaxSlots.
	MaxSlots int
	// Trace, when non-nil, observes every resolved slot.
	Trace TraceFn
	// EventSink, when non-nil, observes every event as it is emitted, in
	// addition to the recorded Events() log. Calls are serialized (one at a
	// time) but may come from any step worker and stall that worker's share
	// of the slot; keep sinks fast.
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
	// cannot stall Events() and a sink may safely read them.
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
	// consecutive slots and sleeps on the wake-wheel until they elapse.
	actIdleLong
)

type action struct {
	kind actKind
	ch   int
	msg  any
	// count is the slot span of an actIdleLong batch.
	count int
}

// Run executes one Stepper per node until every node has powered down,
// then reports the number of slots consumed. Every run starts at slot 0.
func (e *Engine) Run(steppers []Stepper) (slots int, err error) {
	return e.RunContext(context.Background(), steppers)
}

// RunContext is like Run but aborts the round loop as soon as ctx is
// cancelled, returning ctx.Err(). Cancellation is observed between slots,
// so it takes effect promptly even during long schedules.
func (e *Engine) RunContext(ctx context.Context, steppers []Stepper) (slots int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := e.field.N()
	if n == 0 {
		return 0, nil
	}
	if len(steppers) != n {
		return 0, fmt.Errorf("sim: %d steppers for %d nodes", len(steppers), n)
	}
	maxSlots := e.MaxSlots
	if maxSlots <= 0 {
		maxSlots = DefaultMaxSlots
	}

	rs, err := newRunState(e, steppers)
	if err != nil {
		return 0, err
	}

	// nActive counts live nodes and decides termination. The wheel holds
	// every sleeping node, keyed by the slot it acts again in; the awake
	// list holds every other live node, in node order.
	nActive := n
	wheel := newWakeWheel(n)
	due := make([]int32, 0, n)

	// The run's slot arena: action and reception buffers sized for every
	// node once up front, and the field's struct-of-arrays / grid-bin
	// scratch presized to match, so the steady-state slot pipeline —
	// step, collect, resolve, deliver, wake — allocates nothing.
	txs := make([]phy.Tx, 0, n)
	rxs := make([]phy.Rx, 0, n)
	e.field.Reserve(n, n)

	slot := 0
	for used := 0; ; used++ {
		txs, rxs = txs[:0], rxs[:0]
		// With every live node asleep mid-IdleFor nothing can act,
		// terminate or panic, so the engine advances the (empty) slot
		// directly.
		if len(rs.awake) > 0 {
			// Drive the awake nodes: each deposits its action for this
			// slot into pending.
			rs.stepAll(slot)
			if rs.panicked != nil {
				return slot, rs.panicked
			}
			// Collect the slot while retiring terminated nodes and
			// registering fresh IdleFor batches — one pass over the awake
			// list, in node order, which also drops the nodes that left it.
			kept := rs.awake[:0]
			for _, id := range rs.awake {
				i := int(id)
				if rs.done[i] {
					nActive--
					continue
				}
				switch a := &rs.pending[i]; a.kind {
				case actTransmit:
					txs = append(txs, phy.Tx{Node: i, Channel: a.ch, Msg: a.msg})
				case actListen:
					rxs = append(rxs, phy.Rx{Node: i, Channel: a.ch})
				case actIdleLong:
					// The node idles from this slot through slot+count-1
					// and sleeps through those slots.
					wheel.add(i, slot+a.count)
					continue
				}
				kept = append(kept, id)
			}
			rs.awake = kept
			if nActive == 0 {
				return slot, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return slot, err
		}
		if used >= maxSlots {
			return slot, fmt.Errorf("sim: exceeded MaxSlots = %d with %d nodes still live", maxSlots, nActive)
		}

		if e.Faults != nil {
			e.Faults.BeginSlot(slot, e.field)
			// Byzantine corruption point: each transmission may be rewritten
			// or removed before the SINR layer sees it. txs is in node order
			// (the collect pass scans nodes ascending), so the injector's
			// call sequence is identical across worker counts.
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
		for k := range rxs {
			rs.results[rxs[k].Node] = recs[k]
		}
		slot++

		// Open the next slot: sleepers due now pop off the wheel and merge
		// into the awake list in node order.
		if due = wheel.pop(slot, due[:0]); len(due) > 0 {
			rs.wake(due)
		}
	}
}
