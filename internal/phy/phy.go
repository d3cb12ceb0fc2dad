// Package phy implements the SINR physical layer: given the set of nodes
// transmitting and listening on each channel in a slot, it decides which
// messages are decoded and what signal strengths every listener measures.
//
// The decoding rule is the paper's Eq. (1): listener v decodes the message
// of transmitter u iff they share a channel, v is not transmitting, and
//
//	P/d(u,v)^α / (N + Σ_{w≠u} P/d(w,v)^α) ≥ β.
//
// Since β ≥ 1, at most one transmitter (the strongest) can satisfy the
// condition, so resolution tests only the strongest signal at each listener.
// Every slot is resolved exactly: each listener's sum covers every
// same-channel transmitter, whatever its distance.
//
// Listeners always measure total received power, SignalPower +
// Interference (the RSSI primitive of Sec. 2), which upper layers use for
// carrier sense, clear-reception detection (Definition 4) and distance
// estimation.
//
// # Performance
//
// Resolve is the simulator's hot path: every slot of every protocol run
// passes through it. Four mechanisms keep it fast without changing results:
//
//   - Slots read their powers from the deployment's link-gain table
//     (gain.go): the n² received powers P/d^α, computed once with the
//     on-the-fly kernel's own arithmetic, so a lookup replaces a square
//     root and a division per pair and every Reception stays
//     bit-identical. The table belongs to the Deployment, which every
//     Field of a run shares (the facade keeps one per Network), is built
//     lazily by the first Reserve or Resolve that needs it, and is scanned
//     transmitter-major. Above maxGainTableBytes (n > 2048) the table
//     would stream from DRAM and gain nothing, so larger deployments
//     compute powers on the fly.
//   - The slot's transmitters and listeners are laid out once per Resolve
//     in channel-segmented struct-of-arrays form (soa.go, gain.go), so the
//     scans stream through memory with no pointer chasing.
//   - Listeners resolve independently, so Resolve fans them out across a
//     package-level pool of persistent worker goroutines, by default as
//     many as GOMAXPROCS (SetParallelism), once a slot has enough
//     same-channel pairs to pay for the hand-off (minParallelWork).
//     Outcomes are bit-identical for every worker count, and no goroutines
//     are spawned per slot.
//   - All scratch — the layouts, accumulators, reception buffers — is
//     per-Field state reused across calls: steady-state resolution
//     allocates nothing per slot. Reserve presizes the scratch and fetches
//     the table so even the first slots of a run stay allocation-free.
//
// Under the default Euclidean metric with α = 3, per-pair powers use an
// inlined distance and cube that reproduce math.Pow bit-for-bit (see
// resolveOneExact), so transcripts match the generic path exactly.
package phy

import (
	"math"
	"runtime"
	"sync"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// Tx describes one transmission in a slot.
type Tx struct {
	Node    int
	Channel int
	Msg     any
}

// Rx describes one listening node in a slot.
type Rx struct {
	Node    int
	Channel int
}

// Reception is what a listener observes at the end of a slot.
type Reception struct {
	// Decoded reports whether a message was successfully received.
	Decoded bool
	// From is the sender's node index when Decoded, else -1.
	From int
	// Msg is the decoded message when Decoded, else nil.
	Msg any
	// SignalPower is the received power of the decoded transmission
	// (0 when nothing was decoded).
	SignalPower float64
	// Interference is the summed received power of all transmissions other
	// than the decoded one. When nothing was decoded this is the total
	// received power. Ambient noise is not included.
	Interference float64
}

// Deployment is the immutable half of a resolver: the node placement, the
// model parameters, the fading metric and the lazily built link-gain table
// (see gain.go). It is safe for concurrent use, and any number of Fields —
// one per run — may share it, so the table is built once per deployment.
type Deployment struct {
	params model.Params
	pos    []geo.Point
	dist   geo.Metric // nil selects the built-in Euclidean fast path

	power float64 // params.Power, hoisted for the scan loops
	cube  bool    // α = 3: the inlined-cube fast path applies

	gainOnce sync.Once
	gain     []float64 // see gains; nil until built, and when unusable
}

// NewDeployment describes a placement under the Euclidean metric. The
// position slice is retained; callers must not mutate it while the
// deployment is in use.
func NewDeployment(p model.Params, pos []geo.Point) *Deployment {
	return newDeployment(p, pos, nil)
}

func newDeployment(p model.Params, pos []geo.Point, m geo.Metric) *Deployment {
	return &Deployment{
		params: p,
		pos:    pos,
		dist:   m,
		power:  p.Power,
		cube:   p.Alpha == 3,
	}
}

// NewField creates a resolver over the deployment. Fields share the
// deployment's link-gain table but nothing else.
func (d *Deployment) NewField() *Field {
	return &Field{Deployment: d, jammed: make([]bool, d.params.Channels)}
}

// Params returns the model parameters of the deployment.
func (d *Deployment) Params() model.Params { return d.params }

// Positions returns the node placement (shared; do not mutate).
func (d *Deployment) Positions() []geo.Point { return d.pos }

// N returns the number of nodes in the deployment.
func (d *Deployment) N() int { return len(d.pos) }

// Field resolves slots over a Deployment: the per-run mutable state — the
// jammed channels and the reusable slot scratch.
//
// A Field is not safe for concurrent use: Resolve reuses internal scratch
// buffers between calls (each engine builds its own Field).
type Field struct {
	*Deployment
	jammed []bool

	// parallelism is the worker count for Resolve; 0 means GOMAXPROCS.
	parallelism int

	// soa is the per-slot struct-of-arrays transmitter layout, rebuilt by
	// every Resolve call.
	soa slotSoA
	// lis is the per-slot channel-segmented listener layout and the table
	// kernel's accumulators.
	lis slotListeners
	// slotTable records whether the current slot resolves through the
	// link-gain table, set once per Resolve before any fan-out and read-only
	// during it.
	slotTable bool

	// out is the Reception slice returned by Resolve, reused across calls.
	out []Reception
	// wg synchronizes the worker-pool fan-out of one Resolve call.
	wg sync.WaitGroup
}

// NewField creates a resolver for the given placement under the Euclidean
// metric. The position slice is retained; callers must not mutate it during
// use. The field has its own Deployment; share one through
// Deployment.NewField to build the link-gain table only once.
func NewField(p model.Params, pos []geo.Point) *Field {
	return NewDeployment(p, pos).NewField()
}

// NewFieldMetric creates a resolver under an arbitrary fading metric
// (footnote 1 of the paper: the results extend to metrics whose doubling
// dimension is below α). Protocols are metric-agnostic — they only observe
// received powers — so the whole stack runs unchanged. A nil metric selects
// the Euclidean metric and enables its inlined fast path; a non-nil metric
// (even geo.Euclidean explicitly) goes through the generic (slower)
// arithmetic.
func NewFieldMetric(p model.Params, pos []geo.Point, m geo.Metric) *Field {
	return newDeployment(p, pos, m).NewField()
}

// SetParallelism sets how many workers Resolve may fan listeners out
// across: 0 (the default) sizes the fan-out by runtime.GOMAXPROCS, 1 forces
// serial resolution. Outcomes are bit-identical for every setting — only
// wall-clock time changes — because listeners are resolved independently.
func (f *Field) SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	f.parallelism = workers
}

// Jam marks a channel as disrupted (the adversarial setting of the paper's
// reference [9]): nothing decodes on it, but listeners still sense the
// power, as a real jammer would present. Jamming can be toggled between
// slots.
func (f *Field) Jam(channel int, jam bool) {
	f.jammed[channel] = jam
}

// Reserve presizes the field's reusable scratch — the reception buffer and
// the struct-of-arrays layouts — for slots with up to maxTx transmitters and
// maxRx listeners, and builds or fetches the deployment's link-gain table, so
// a run's first slots allocate nothing. The engine calls this once per run
// with the node count; calling it is never required for correctness.
func (f *Field) Reserve(maxTx, maxRx int) {
	if cap(f.out) < maxRx {
		f.out = make([]Reception, maxRx)
	}
	f.soa.reserve(f.params.Channels, maxTx)
	f.lis.reserve(f.params.Channels, maxRx, len(f.pos))
	f.gains()
}

// minParallelWork bounds when Resolve fans out to the worker pool: below
// this many same-channel listener×transmitter pairs the hand-off overhead
// outweighs the win. Measured on a 2-vCPU Xeon VM (BenchmarkResolveTable*
// vs its Parallel twin, BenchmarkResolve4k*): a 21k-pair table slot breaks
// even, an 84k-pair one gains 1.15×, and a 335k-pair on-the-fly slot 1.8×.
const minParallelWork = 1 << 14

// workersFor picks the worker count for one Resolve call from the slot's
// same-channel pair count Σ_c tx_c·rx_c.
func (f *Field) workersFor(nRx int) int {
	w := f.parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nRx {
		w = nRx
	}
	if w <= 1 || f.lis.pairs(&f.soa) < minParallelWork {
		return 1
	}
	return w
}

// Resolve computes the reception outcome for every listener given the
// transmissions of one slot. The returned slice is parallel to rxs and is
// only valid until the next Resolve call on this field (it is reused
// scratch); callers that retain receptions must copy them.
//
// Channels are numbered 0..F-1; transmissions or listens on out-of-range
// channels panic, as they indicate a protocol bug.
func (f *Field) Resolve(txs []Tx, rxs []Rx) []Reception {
	// Lay the slot's transmitters and listeners out per channel before any
	// fan-out, so invalid channels panic on the caller's goroutine. The slot
	// resolves through the link-gain table when the deployment has one.
	f.soa.prepare(f, txs)
	f.lis.prepare(f, rxs)
	f.slotTable = f.gains() != nil && !f.lis.overlaps(txs)
	if cap(f.out) < len(rxs) {
		f.out = make([]Reception, len(rxs))
	}
	out := f.out[:len(rxs)]

	if w := f.workersFor(len(rxs)); w > 1 {
		poolOnce.Do(startPool)
		chunk := (len(rxs) + w - 1) / w
		for lo := chunk; lo < len(rxs); lo += chunk {
			hi := min(lo+chunk, len(rxs))
			f.wg.Add(1)
			poolTasks <- resolveTask{f: f, txs: txs, rxs: rxs, out: out, lo: lo, hi: hi}
		}
		f.resolveRange(txs, rxs, out, 0, min(chunk, len(rxs)))
		f.wg.Wait()
	} else {
		f.resolveRange(txs, rxs, out, 0, len(rxs))
	}
	return out
}

// resolveRange resolves one share of the slot's listeners: rxs[lo:hi], or
// in table slots the listener layout's positions lo..hi. It is the unit of
// work handed to pool workers; disjoint ranges touch disjoint out entries
// and scratch, so workers share nothing but read-only slot state.
func (f *Field) resolveRange(txs []Tx, rxs []Rx, out []Reception, lo, hi int) {
	if f.slotTable {
		f.resolveTableRange(txs, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		rx := rxs[i]
		f.resolveOneExact(&out[i], rx, txs)
		if f.jammed[rx.Channel] {
			jamFold(&out[i])
		}
	}
}

// jamFold applies a jammed channel to an exactly resolved reception: the
// signal is still sensed, nothing is delivered (the historical fold,
// preserved bit-for-bit).
func jamFold(rec *Reception) {
	if rec.Decoded {
		rec.Interference += rec.SignalPower
		rec.Decoded, rec.From, rec.Msg = false, -1, nil
		rec.SignalPower = 0
	}
}

// resolveOneExact scans the listener's whole channel segment pairwise, in
// transmitter order, and writes the outcome to rec.
func (f *Field) resolveOneExact(rec *Reception, rx Rx, txs []Tx) {
	listener := f.pos[rx.Node]
	lo, hi := f.soa.segment(rx.Channel)
	self := int32(rx.Node)

	var (
		total   float64
		best    = int32(-1)
		bestPow float64
	)
	if f.dist == nil && f.cube {
		// Hot path: Euclidean metric with α = 3 (the default parameters).
		// Bit-identical to the generic loop below: geo.Euclidean is exactly
		// √(dx²+dy²), and math.Pow(d, 3) multiplies d·(d·d) by
		// square-and-multiply, which equals (d·d)·d under round-to-nearest
		// multiplication, so P/(d·d·d) reproduces PowerAtDistance exactly.
		lx, ly := listener.X, listener.Y
		power := f.power
		xs := f.soa.x[lo:hi]
		ys := f.soa.y[lo:hi:hi][:len(xs)]
		nodes := f.soa.node[lo:hi:hi][:len(xs)]
		// bestPow starts at -Inf so the first scanned transmitter always
		// wins the strict comparison — the same selection the historical
		// "best == -1 ||" test made, without the extra branch per pair.
		bestPow = math.Inf(-1)
		for k := range xs {
			if nodes[k] == self {
				// A node cannot hear anything while transmitting; the
				// engine never submits both, but be safe.
				continue
			}
			dx, dy := lx-xs[k], ly-ys[k]
			d := math.Sqrt(dx*dx + dy*dy)
			var pw float64
			if d <= 0 {
				pw = math.Inf(1)
			} else {
				pw = power / (d * d * d)
			}
			total += pw
			if pw > bestPow {
				best, bestPow = int32(k), pw
			}
		}
	} else {
		dist := f.dist
		if dist == nil {
			dist = geo.Euclidean
		}
		nodes := f.soa.node[lo:hi]
		for k := range nodes {
			if nodes[k] == self {
				continue
			}
			pw := f.params.PowerAtDistance(dist(listener, f.pos[nodes[k]]))
			total += pw
			if best == -1 || pw > bestPow {
				best, bestPow = int32(k), pw
			}
		}
	}
	if best >= 0 {
		f.decide(rec, txs, total, bestPow, int(f.soa.tx[lo+int(best)]))
		return
	}
	f.decide(rec, txs, total, bestPow, -1)
}

// decide applies the Eq. (1) threshold test to one listener's accumulated
// scan — total sensed power, the strongest transmitter (as an index into
// txs) and its power — and writes the outcome to rec. Writing through rec
// rather than returning the struct keeps the per-listener copy out of the
// callers' loops.
func (f *Field) decide(rec *Reception, txs []Tx, total, bestPow float64, best int) {
	if best == -1 {
		*rec = Reception{From: -1}
		return
	}
	if math.IsInf(bestPow, 1) {
		// A co-located sender: its power is unbounded, so the SINR is
		// undefined and nothing decodes.
		*rec = Reception{From: -1, Interference: total}
		return
	}
	interference := total - bestPow
	if bestPow/(f.params.Noise+interference) >= f.params.Beta {
		*rec = Reception{
			Decoded:      true,
			From:         txs[best].Node,
			Msg:          txs[best].Msg,
			SignalPower:  bestPow,
			Interference: interference,
		}
		return
	}
	// Not decoded: the listener still senses all the power.
	*rec = Reception{From: -1, Interference: total}
}

// Reach is the reception filter for one distance r under one parameter
// set: it holds the received-power thresholds that Within and Clear compare
// against, so a protocol builds it once per compiled stage (NewReach)
// instead of evaluating the path-loss law on every decoded reception.
type Reach struct {
	minPow, maxInterference float64
}

// NewReach returns the filter for radius r under p.
func NewReach(p model.Params, r float64) Reach {
	return Reach{minPow: p.PowerAtDistance(r), maxInterference: p.ClearInterferenceBound(r)}
}

// Within reports whether the decoded sender lies within distance r of the
// receiver, judged from received power (exact under the deterministic
// path-loss law).
func (g Reach) Within(rec Reception) bool {
	return rec.Decoded && rec.SignalPower >= g.minPow
}

// Clear reports whether rec is a "clear reception" for radius r in the sense
// of Definition 4: a message was decoded, it originated within distance r
// (judged from received power), and the sensed interference certifies that
// no other node within 4r of the receiver transmitted.
//
// The certificate uses the maximal admissible threshold P/(4r)^α rather
// than the paper's (much smaller) constant T_s; see
// model.Params.ClearInterferenceBound and deviation D5 in the mcnet package
// documentation.
func (g Reach) Clear(rec Reception) bool {
	return g.Within(rec) && rec.Interference < g.maxInterference
}
