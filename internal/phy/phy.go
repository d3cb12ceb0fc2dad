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
//
// Listeners always measure total received power (the RSSI primitive of
// Sec. 2), which upper layers use for carrier sense, clear-reception
// detection (Definition 4) and distance estimation.
//
// # Resolver modes
//
// A Field resolves slots in one of two modes (SetResolver):
//
//   - ResolverHierarchical (the default under the Euclidean metric) bins the
//     slot's transmitters into a uniform grid once — O(|txs|) — and gives
//     each listener an exact pairwise sum over nearby cells plus one
//     centroid-aggregated term per distant cell, with relative error at most
//     the configured tolerance on the far-field interference term (see
//     hier.go for the bound). Decoding candidates are always evaluated
//     exactly: the near region extends at least to the transmission range
//     R_T, beyond which no transmitter can satisfy the SINR threshold. When
//     the whole deployment fits inside the near region (the grid is
//     degenerate) nothing can be aggregated, and slots resolve exactly.
//   - ResolverExact sums every same-channel transmitter per listener —
//     O(Σ_c tx_c·rx_c) per slot — bit-identically to the historical
//     resolver: transcripts recorded before the hierarchical mode existed
//     replay exactly. Fields over a custom metric always resolve exactly.
//
// Both modes are deterministic: equal slots resolve to equal receptions at
// every parallelism setting, run after run. Only exact mode is
// transcript-compatible across the mode boundary.
//
// # Performance
//
// Resolve is the simulator's hot path: every slot of every protocol run
// passes through it. Beyond the hierarchical aggregation, four mechanisms
// keep it fast without changing results:
//
//   - Exact slots read their powers from the deployment's link-gain table
//     (gain.go): the n² received powers P/d^α, computed once with the exact
//     kernel's own arithmetic, so a lookup replaces a square root and a
//     division per pair and every Reception stays bit-identical. The table
//     belongs to the Deployment, which every Field of a run shares (the
//     facade keeps one per Network), is built lazily by the first Reserve
//     or Resolve that needs it, and is scanned transmitter-major. Above
//     maxGainTableBytes (n > 2048) the table would stream from DRAM and
//     gain nothing, so larger deployments — and non-degenerate
//     hierarchical slots — compute powers on the fly.
//   - The slot's transmitters and listeners are laid out once per Resolve
//     in channel-segmented struct-of-arrays form (soa.go, gain.go), so the
//     scans stream through memory with no pointer chasing.
//   - Listeners resolve independently, so Resolve fans them out across a
//     package-level pool of persistent worker goroutines, by default as
//     many as GOMAXPROCS (SetParallelism), once a slot has enough
//     same-channel pairs to pay for the hand-off (minParallelWork).
//     Outcomes are bit-identical for every worker count, and no goroutines
//     are spawned per slot.
//   - All scratch — the layouts, grid bins, accumulators, reception
//     buffers — is per-Field state reused across calls: steady-state
//     resolution allocates nothing per slot. Reserve presizes the scratch
//     and fetches the table so even the first slots of a run stay
//     allocation-free.
//
// Under the default Euclidean metric with α = 3, per-pair powers use an
// inlined distance and an integer power identity that reproduces math.Pow
// bit-for-bit (see ipow), so transcripts match the generic path exactly.
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
	// SINR is SignalPower / (N + Interference) when Decoded, else 0.
	SINR float64
}

// RSSI returns the total measured power including the decoded signal but
// excluding ambient noise.
func (r Reception) RSSI() float64 { return r.SignalPower + r.Interference }

// Resolver selects how a Field computes per-listener interference sums.
type Resolver int

const (
	// ResolverHierarchical is the default: grid-binned transmitters, exact
	// near cells, centroid-aggregated far cells within the configured
	// tolerance. Requires the Euclidean metric.
	ResolverHierarchical Resolver = iota
	// ResolverExact scans every same-channel transmitter per listener and
	// is bit-identical to the pre-hierarchical resolver.
	ResolverExact
)

// DefaultFarFieldTolerance is the hierarchical mode's default relative
// error bound on the far-field interference term. Decode outcomes can
// differ from exact mode only when a listener's SINR lies within this
// factor of the threshold β.
const DefaultFarFieldTolerance = 0.05

// DefaultCellFraction sizes hierarchical grid cells as this fraction of the
// transmission range R_T; geo.NewGrid coarsens further if the deployment's
// extent would need too many cells.
const DefaultCellFraction = 0.5

// Deployment is the immutable half of a resolver: the node placement, the
// model parameters, the fading metric and the lazily built link-gain table
// (see gain.go). It is safe for concurrent use, and any number of Fields —
// one per run — may share it, so the table is built once per deployment.
type Deployment struct {
	params model.Params
	pos    []geo.Point
	dist   geo.Metric // nil selects the built-in Euclidean fast path

	power    float64 // params.Power, hoisted for the scan loops
	alphaInt int     // α when integral in [1, 64], else 0

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
		params:   p,
		pos:      pos,
		dist:     m,
		power:    p.Power,
		alphaInt: integralAlpha(p.Alpha),
	}
}

// NewField creates a resolver over the deployment, resolving
// hierarchically with the default tolerance and cell size under the
// Euclidean metric, exactly under a custom one. Fields share the
// deployment's link-gain table but nothing else.
func (d *Deployment) NewField() *Field {
	f := &Field{
		Deployment: d,
		jammed:     make([]bool, d.params.Channels),
		mode:       ResolverHierarchical,
		tol:        DefaultFarFieldTolerance,
		cellFrac:   DefaultCellFraction,
	}
	if d.dist != nil {
		f.mode = ResolverExact
	}
	return f
}

// Params returns the model parameters of the deployment.
func (d *Deployment) Params() model.Params { return d.params }

// Positions returns the node placement (shared; do not mutate).
func (d *Deployment) Positions() []geo.Point { return d.pos }

// N returns the number of nodes in the deployment.
func (d *Deployment) N() int { return len(d.pos) }

// Field resolves slots over a Deployment: the per-run mutable state — the
// resolver mode, jammed channels and the reusable slot scratch.
//
// A Field is not safe for concurrent use: Resolve reuses internal scratch
// buffers between calls (each engine builds its own Field).
type Field struct {
	*Deployment
	jammed []bool

	// parallelism is the worker count for Resolve; 0 means GOMAXPROCS.
	parallelism int

	mode     Resolver
	tol      float64 // hierarchical far-field tolerance (> 0)
	cellFrac float64 // grid cell size as a fraction of R_T

	// soa is the per-slot struct-of-arrays transmitter layout, rebuilt by
	// every Resolve call; hier adds the per-cell segmentation on top.
	soa  slotSoA
	hier *hierState
	// lis is the per-slot channel-segmented listener layout and the table
	// kernel's accumulators.
	lis slotListeners
	// slotHier and slotTable record how the current slot resolves (mode,
	// metric, grid degeneration and table availability folded in), set once
	// per Resolve before any fan-out and read-only during it.
	slotHier, slotTable bool

	// out is the Reception slice returned by Resolve, reused across calls.
	out []Reception
	// wg synchronizes the worker-pool fan-out of one Resolve call.
	wg sync.WaitGroup
}

// NewField creates a resolver for the given placement under the Euclidean
// metric, resolving hierarchically with the default tolerance and cell
// size. The position slice is retained; callers must not mutate it during
// use. The field has its own Deployment; share one through
// Deployment.NewField to build the link-gain table only once.
func NewField(p model.Params, pos []geo.Point) *Field {
	return NewDeployment(p, pos).NewField()
}

// NewFieldMetric creates a resolver under an arbitrary fading metric
// (footnote 1 of the paper: the results extend to metrics whose doubling
// dimension is below α). Protocols are metric-agnostic — they only observe
// received powers — so the whole stack runs unchanged. A nil metric selects
// the Euclidean metric and enables its inlined fast path and the
// hierarchical resolver; a non-nil metric (even geo.Euclidean explicitly)
// resolves exactly through the generic (slower) arithmetic.
func NewFieldMetric(p model.Params, pos []geo.Point, m geo.Metric) *Field {
	return newDeployment(p, pos, m).NewField()
}

// SetResolver selects the resolution mode. Selecting ResolverHierarchical
// on a field built over a custom metric panics: the aggregation's error
// bound holds only for the Euclidean metric.
func (f *Field) SetResolver(mode Resolver) {
	switch mode {
	case ResolverExact:
		f.mode = ResolverExact
	case ResolverHierarchical:
		if f.dist != nil {
			panic("phy: hierarchical resolution requires the Euclidean metric")
		}
		f.mode = ResolverHierarchical
	default:
		panic("phy: unknown resolver mode")
	}
}

// Mode returns the field's resolution mode.
func (f *Field) Mode() Resolver { return f.mode }

// SetFarFieldTolerance sets the hierarchical mode's relative error bound on
// the far-field interference term and selects hierarchical resolution. The
// tolerance must be positive and finite (exact resolution is
// SetResolver(ResolverExact)), and fields built over a custom metric panic.
func (f *Field) SetFarFieldTolerance(tol float64) {
	if !(tol > 0) || math.IsInf(tol, 0) {
		panic("phy: far-field tolerance must be positive and finite")
	}
	if f.dist != nil {
		panic("phy: far-field approximation requires the Euclidean metric")
	}
	f.mode = ResolverHierarchical
	f.tol = tol
	if f.hier != nil {
		f.hier.setCutoff(f, tol)
	}
}

// SetCellSize sizes the hierarchical grid's cells as frac·R_T (default
// DefaultCellFraction). Smaller cells tighten the near region around each
// listener at the cost of more cells; geo.NewGrid coarsens the result if
// the deployment's extent would need too many cells. The error bound holds
// for every setting — only performance changes.
func (f *Field) SetCellSize(frac float64) {
	if frac <= 0 || math.IsNaN(frac) || math.IsInf(frac, 0) {
		panic("phy: cell size fraction must be positive and finite")
	}
	f.cellFrac = frac
	f.hier = nil // grid geometry changed; rebuild lazily
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

// Reserve presizes the field's reusable scratch — the reception buffer, the
// struct-of-arrays layouts and (in hierarchical mode) the grid bins — for
// slots with up to maxTx transmitters and maxRx listeners, and builds or
// fetches the deployment's link-gain table, so a run's first slots allocate
// nothing. The engine calls this once per run with the node count; calling
// it is never required for correctness.
func (f *Field) Reserve(maxTx, maxRx int) {
	if cap(f.out) < maxRx {
		f.out = make([]Reception, maxRx)
	}
	f.soa.reserve(f.params.Channels, maxTx)
	f.lis.reserve(f.params.Channels, maxRx, len(f.pos))
	if f.hierActive() {
		if h := f.hierState(); !h.degenerate {
			// Hierarchical slots never read the link-gain table.
			h.reserve(f.params.Channels, maxTx)
			return
		}
	}
	f.gains()
}

// hierActive reports whether slots resolve through the hierarchical path.
func (f *Field) hierActive() bool { return f.mode == ResolverHierarchical && f.dist == nil }

// hierState returns the hierarchical geometry, building it on first use
// (and after SetCellSize invalidated it).
func (f *Field) hierState() *hierState {
	if f.hier == nil {
		f.hier = newHierState(f)
	}
	return f.hier
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
	// Lay the slot's transmitters and listeners out per channel (and bin
	// the transmitters into grid cells in hierarchical mode) before any
	// fan-out, so invalid channels panic on the caller's goroutine. A
	// degenerate grid — the whole deployment inside the near region — skips
	// binning and resolves exactly, through the link-gain table when the
	// deployment has one, bit-identically to exact mode.
	f.soa.prepare(f, txs)
	f.lis.prepare(f, rxs)
	f.slotHier = false
	if f.hierActive() {
		if h := f.hierState(); !h.degenerate {
			h.prepare(f, txs)
			f.slotHier = true
		}
	}
	f.slotTable = !f.slotHier && f.gains() != nil && !f.lis.overlaps(txs)
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
	hier := f.slotHier
	for i := lo; i < hi; i++ {
		rx := rxs[i]
		if hier {
			if f.jammed[rx.Channel] {
				// A jammed channel delivers nothing, so decode bookkeeping
				// is skipped: the listener senses the exact flat power sum
				// of the (unbinned) channel segment.
				out[i] = Reception{From: -1, Interference: f.jammedTotal(rx)}
			} else {
				f.resolveOneHier(&out[i], rx, txs)
			}
			continue
		}
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
		rec.SignalPower, rec.SINR = 0, 0
	}
}

// resolveOneExact scans the listener's whole channel segment pairwise, in
// transmitter order — bit-identical to the pre-hierarchical resolver — and
// writes the outcome to rec.
func (f *Field) resolveOneExact(rec *Reception, rx Rx, txs []Tx) {
	listener := f.pos[rx.Node]
	lo, hi := f.soa.segment(rx.Channel)
	self := int32(rx.Node)

	var (
		total   float64
		best    = int32(-1)
		bestPow float64
	)
	if f.dist == nil && f.alphaInt == 3 {
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

// jammedTotal returns the exact summed power a listener on a jammed channel
// senses in hierarchical mode: the flat channel segment, no decode
// bookkeeping (jammed channels skip cell binning entirely).
func (f *Field) jammedTotal(rx Rx) float64 {
	listener := f.pos[rx.Node]
	lo, hi := f.soa.segment(rx.Channel)
	lx, ly := listener.X, listener.Y
	self := int32(rx.Node)
	power := f.power
	cube := f.alphaInt == 3
	var total float64
	xs, ys, nodes := f.soa.x[lo:hi], f.soa.y[lo:hi], f.soa.node[lo:hi]
	for k := range xs {
		if nodes[k] == self {
			continue
		}
		dx, dy := lx-xs[k], ly-ys[k]
		d := math.Sqrt(dx*dx + dy*dy)
		if cube && d > 0 {
			total += power / (d * d * d)
		} else {
			total += f.powerAt(d)
		}
	}
	return total
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
	sinr := bestPow / (f.params.Noise + interference)
	if sinr >= f.params.Beta {
		*rec = Reception{
			Decoded:      true,
			From:         txs[best].Node,
			Msg:          txs[best].Msg,
			SignalPower:  bestPow,
			Interference: interference,
			SINR:         sinr,
		}
		return
	}
	// Not decoded: the listener still senses all the power.
	*rec = Reception{From: -1, Interference: total}
}

// powerAt returns the received power P/d^α, matching
// model.Params.PowerAtDistance bit-for-bit (the integral-α route goes
// through ipow, which reproduces math.Pow's square-and-multiply rounding).
func (f *Field) powerAt(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	if f.alphaInt > 0 {
		return f.power / ipow(d, f.alphaInt)
	}
	return f.power / math.Pow(d, f.params.Alpha)
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
func Clear(rec Reception, p model.Params, r float64) bool {
	if !rec.Decoded {
		return false
	}
	if rec.SignalPower < p.PowerAtDistance(r) {
		return false // sender farther than r
	}
	return rec.Interference < p.ClearInterferenceBound(r)
}

// SenderWithin reports whether the decoded sender lies within distance r of
// the receiver, judged from received power (exact under the deterministic
// path-loss law).
func SenderWithin(rec Reception, p model.Params, r float64) bool {
	return rec.Decoded && rec.SignalPower >= p.PowerAtDistance(r)
}
