// Package fault implements the deterministic fault and dynamics layer: it
// perturbs slot resolution with probabilistic message loss, adversarial
// channel jamming and node churn, while keeping every run a pure function of
// (seed, fault spec). The paper analyzes a static SINR network; this layer
// stress-tests the same schedules when links and nodes are not ideal.
//
// Every fault decision is derived by hashing (seed, slot, node) — never by
// consuming protocol randomness or shared mutable RNG state — so transcripts
// replay bit-identically regardless of goroutine scheduling, and a
// zero-intensity spec (no loss, no jam, no churn) is observationally
// identical to running without the layer at all.
//
// An Injector plugs into the simulator through the sim.FaultInjector hook:
// BeginSlot reconfigures per-slot channel jamming on the field,
// FilterTransmission lets Byzantine nodes corrupt, equivocate on, or drop
// their own transmissions, FilterReception suppresses decoded receptions
// chosen by the loss process, and CrashSlot tells each node's context when
// (if ever) the node dies.
//
// Adaptive adversaries (JamReactive, JamAdaptive) observe only
// engine-resolved state — the per-channel decoded-delivery counts of the
// previous slot — which the engine computes in node order on both execution
// paths, so even a reactive attack is a pure function of (seed, spec,
// transcript-so-far) and replays bit-identically across exec modes and
// worker counts.
package fault

import (
	"fmt"
	"math"
	"sort"

	"mcnet/internal/phy"
	"mcnet/internal/rng"
)

// JamModel selects the jamming adversary's channel-selection strategy.
type JamModel int

const (
	// JamOblivious draws the k jammed channels fresh each slot from a
	// seeded RNG independent of the execution — the oblivious adversary.
	JamOblivious JamModel = iota
	// JamRoundRobin sweeps a block of k consecutive channels cyclically
	// across the F channels, one step per slot — a deterministic adversary
	// that eventually disrupts every channel equally.
	JamRoundRobin
	// JamReactive jams the k channels that carried the most decoded,
	// delivered traffic in the previous slot (ties to the lower channel
	// index; the first slot, with no history, jams channels 0..k-1). This is
	// the strongest eavesdropping adversary expressible from engine state
	// alone: it chases wherever the protocol's traffic actually lands.
	JamReactive
	// JamAdaptive is a seeded ε-greedy bandit over channels: it keeps an
	// exponentially decayed per-channel score of delivered traffic and each
	// slot either exploits the k best-scoring channels or (with a small
	// seeded exploration probability) probes a fresh random k-subset.
	// Between oblivious and reactive in strength, it models a learning
	// jammer with imperfect memory.
	JamAdaptive
)

// String returns the model's mnemonic name.
func (m JamModel) String() string {
	switch m {
	case JamOblivious:
		return "oblivious"
	case JamRoundRobin:
		return "roundrobin"
	case JamReactive:
		return "reactive"
	case JamAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("JamModel(%d)", int(m))
	}
}

// ByzStrategy selects what a Byzantine node does with its own transmissions.
type ByzStrategy int

const (
	// ByzCorrupt replaces every aggregation payload the node sends with a
	// fixed seeded lie — a consistent liar: the same wrong value on every
	// channel and slot, the hardest corruption to vote away.
	ByzCorrupt ByzStrategy = iota
	// ByzEquivocate sends a different seeded lie per (slot, channel) — the
	// classic equivocation attack: different stories to different audiences.
	ByzEquivocate
	// ByzSilent drops every transmission the node attempts while it keeps
	// listening and occupying its protocol role — a fail-silent traitor that
	// starves its cluster without triggering crash detection.
	ByzSilent
)

// String returns the strategy's mnemonic name.
func (s ByzStrategy) String() string {
	switch s {
	case ByzCorrupt:
		return "corrupt"
	case ByzEquivocate:
		return "equivocate"
	case ByzSilent:
		return "silent"
	default:
		return fmt.Sprintf("ByzStrategy(%d)", int(s))
	}
}

// ByzSpec declares the Byzantine population of one run. The zero value
// injects nothing. Membership is chosen by seeded hash over node IDs —
// exactly round(Fraction·n) nodes — so the same (seed, spec, n) always
// corrupts the same nodes, independent of scheduling.
type ByzSpec struct {
	// Fraction of the deployment to corrupt, in [0, 1].
	Fraction float64
	// Strategy selects the nodes' behavior.
	Strategy ByzStrategy
}

// Zero reports whether the spec names no Byzantine nodes.
func (b ByzSpec) Zero() bool { return b.Fraction == 0 }

// size resolves the spec to a concrete Byzantine population for n nodes.
func (b ByzSpec) size(n int) int {
	return int(math.Round(b.Fraction * float64(n)))
}

// Payload is implemented by value-bearing protocol messages that Byzantine
// nodes know how to corrupt. It is structural on purpose: the fault layer
// never imports protocol packages, it just rewrites any message that carries
// an int64 aggregation payload. Messages without it (control traffic) pass
// through corruption untouched.
type Payload interface {
	// PayloadValue returns the message's aggregation payload.
	PayloadValue() int64
	// WithPayloadValue returns a copy of the message carrying v instead.
	WithPayloadValue(v int64) any
}

// Spec declares the faults of one run. The zero value injects nothing.
type Spec struct {
	// LossProb is the per-reception Bernoulli loss probability in [0, 1]:
	// each decoded message is independently suppressed with this
	// probability (the listener still senses its power, as under fading).
	LossProb float64

	// JamChannels is the number k of channels the adversary jams each slot
	// (0 disables jamming); JamModel picks how the k channels are chosen.
	// Nothing decodes on a jammed channel, but its power is still sensed.
	JamChannels int
	JamModel    JamModel

	// CrashAt maps node IDs to the first slot at which they are dead: from
	// that slot on the node performs no further radio actions.
	CrashAt map[int]int
	// CrashRate additionally crashes each remaining node independently
	// with this probability, at a seeded slot drawn uniformly from
	// [CrashFrom, CrashUntil). CrashUntil = 0 means the run's horizon.
	CrashRate             float64
	CrashFrom, CrashUntil int

	// Byz declares the Byzantine population: lying, equivocating, or
	// fail-silent nodes chosen by seeded hash.
	Byz ByzSpec
}

// Zero reports whether the spec injects nothing: no loss, no jamming, no
// churn and no Byzantine nodes. A zero spec's injector is observationally
// identical to no injector.
func (s Spec) Zero() bool {
	return s.LossProb == 0 && s.JamChannels == 0 && len(s.CrashAt) == 0 && s.CrashRate == 0 &&
		s.Byz.Zero()
}

// Validate checks the spec against a deployment of n nodes on the given
// channel count. Injectors assume a validated spec.
func (s Spec) Validate(n, channels int) error {
	if s.LossProb < 0 || s.LossProb > 1 || s.LossProb != s.LossProb {
		return fmt.Errorf("fault: loss probability %v must be in [0, 1]", s.LossProb)
	}
	if s.JamChannels < 0 {
		return fmt.Errorf("fault: jammed channel count %d must be ≥ 0", s.JamChannels)
	}
	if s.JamChannels >= channels && s.JamChannels > 0 {
		return fmt.Errorf("fault: jamming %d of %d channels leaves none usable", s.JamChannels, channels)
	}
	switch s.JamModel {
	case JamOblivious, JamRoundRobin, JamReactive, JamAdaptive:
	default:
		return fmt.Errorf("fault: unknown jam model %d", int(s.JamModel))
	}
	if s.CrashRate < 0 || s.CrashRate > 1 || s.CrashRate != s.CrashRate {
		return fmt.Errorf("fault: crash rate %v must be in [0, 1]", s.CrashRate)
	}
	if s.CrashFrom < 0 {
		return fmt.Errorf("fault: crash window start %d must be ≥ 0", s.CrashFrom)
	}
	if s.CrashUntil != 0 && s.CrashUntil <= s.CrashFrom {
		return fmt.Errorf("fault: crash window [%d, %d) is empty", s.CrashFrom, s.CrashUntil)
	}
	for id, slot := range s.CrashAt {
		if id < 0 || id >= n {
			return fmt.Errorf("fault: crash set names node %d, deployment has %d nodes", id, n)
		}
		if slot < 0 {
			return fmt.Errorf("fault: node %d crash slot %d must be ≥ 0", id, slot)
		}
	}
	if b := s.Byz; b.Fraction < 0 || b.Fraction > 1 || b.Fraction != b.Fraction {
		return fmt.Errorf("fault: byzantine fraction %v must be in [0, 1]", b.Fraction)
	} else {
		switch b.Strategy {
		case ByzCorrupt, ByzEquivocate, ByzSilent:
		default:
			return fmt.Errorf("fault: unknown byzantine strategy %d", int(b.Strategy))
		}
	}
	return nil
}

// Report summarizes what an Injector did during one run.
type Report struct {
	// Slots is the number of slots the injector observed.
	Slots int
	// Delivered counts decoded receptions handed to listeners; Lost counts
	// decoded receptions suppressed by the loss process. Their sum is every
	// successful decode of the underlying SINR layer (after jamming).
	Delivered, Lost int
	// JammedSlotChannels counts (slot, channel) pairs the adversary jammed.
	JammedSlotChannels int
	// CrashedNodes lists the nodes whose crash slot fell inside the run,
	// ascending.
	CrashedNodes []int
	// ByzantineNodes lists the seeded Byzantine membership, ascending.
	ByzantineNodes []int
	// Corrupted counts payloads rewritten by Byzantine transmitters;
	// Dropped counts transmissions they silently discarded.
	Corrupted, Dropped int
}

// Crashed reports whether node id crashed during the run.
func (r Report) Crashed(id int) bool {
	i := sort.SearchInts(r.CrashedNodes, id)
	return i < len(r.CrashedNodes) && r.CrashedNodes[i] == id
}

// Byzantine reports whether node id was in the run's Byzantine set.
func (r Report) Byzantine(id int) bool {
	i := sort.SearchInts(r.ByzantineNodes, id)
	return i < len(r.ByzantineNodes) && r.ByzantineNodes[i] == id
}

// SurvivorTally is the surviving-node correctness summary of one run: how
// many nodes outlived the faults, how many of those learned some aggregate,
// how many learned the reference value exactly, and the size of the largest
// set agreeing on a single value (the consensus notion that replaces
// exactness under churn, where nodes dying before contributing make the
// full-input fold unreachable).
type SurvivorTally struct {
	Survivors, Informed, Exact, Agreeing int
}

// TallySurvivors folds per-node outcomes into a SurvivorTally. node(i) must
// report whether node i learned a value and which; want is the reference
// aggregate for exactness. core.RunSummary is its one caller, so the facade
// result and the experiment tables read the same tally.
//
// Byzantine nodes are excluded from every count: the tally measures honest
// correctness, which is what degrades as the Byzantine fraction grows — a
// liar "agreeing" with its own lie is not a success.
func (r Report) TallySurvivors(n int, node func(i int) (informed bool, value int64), want int64) SurvivorTally {
	t := SurvivorTally{}
	agree := make(map[int64]int)
	for i := 0; i < n; i++ {
		if r.Byzantine(i) {
			continue
		}
		if !r.Crashed(i) {
			t.Survivors++
		}
		informed, value := node(i)
		if !informed || r.Crashed(i) {
			continue
		}
		t.Informed++
		if value == want {
			t.Exact++
		}
		agree[value]++
	}
	for _, c := range agree {
		if c > t.Agreeing {
			t.Agreeing = c
		}
	}
	return t
}

// Domain-separation constants for the per-fault sub-seeds, so the loss,
// jamming and churn processes draw from unrelated streams of one run seed.
const (
	lossSalt  = 0x6c6f7373_6d636e65 // "loss"
	jamSalt   = 0x6a616d6d_6d636e65 // "jamm"
	churnSalt = 0x63687572_6d636e65 // "chur"
	byzSalt   = 0x62797a61_6d636e65 // "byza"
)

// Tunables of the JamAdaptive bandit: per-slot score decay, and the seeded
// probability of exploring a fresh random k-subset instead of exploiting the
// best-scoring channels.
const (
	adaptiveDecay   = 0.75
	adaptiveExplore = 0.15
)

// neverCrashes is the crash slot of an immortal node: above any reachable
// slot index.
const neverCrashes = math.MaxInt

// Injector applies one Spec to one run. It implements the simulator's
// fault hook (sim.FaultInjector); all its methods are invoked from the
// engine goroutine or during setup, never concurrently.
//
// An Injector is single-use: build a fresh one per run, then read Report.
type Injector struct {
	spec     Spec
	channels int

	lossSeed uint64
	jamSeed  uint64
	byzSeed  uint64

	crashAt []int // per node, first dead slot (neverCrashes if immortal)

	jammed []int // channels jammed in the current slot (scratch)
	perm   []int // oblivious k-subset scratch, len == channels

	// Byzantine membership: byzNodes ascending for the report, isByz for
	// the per-transmission test. Both empty when the ByzSpec is zero.
	byzNodes []int
	isByz    []bool

	// Adaptive-adversary observations: delivered decode counts per channel
	// accumulated during the current slot's FilterReception pass, and the
	// bandit's decayed per-channel scores. Nil unless the model needs them.
	chanDecode []int
	chanScore  []float64

	slots    int
	lastSlot int

	delivered, lost    int
	jammedSlotChannels int
	corrupted, dropped int
}

// NewInjector builds the injector for one run: n nodes on the given channel
// count, faults seeded from the run seed, with horizon bounding the
// rate-based crash window when the spec leaves CrashUntil at 0. The spec
// must have passed Validate.
func NewInjector(spec Spec, seed uint64, n, channels, horizon int) *Injector {
	in := &Injector{
		spec:     spec,
		channels: channels,
		lossSeed: rng.Mix(seed, lossSalt),
		jamSeed:  rng.Mix(seed, jamSalt),
		byzSeed:  rng.Mix(seed, byzSalt),
		crashAt:  make([]int, n),
		lastSlot: -1,
	}
	if spec.JamChannels > 0 {
		in.perm = make([]int, channels)
		if spec.JamModel == JamReactive || spec.JamModel == JamAdaptive {
			in.chanDecode = make([]int, channels)
			if spec.JamModel == JamAdaptive {
				in.chanScore = make([]float64, channels)
			}
		}
	}
	if k := spec.Byz.size(n); k > 0 {
		in.byzNodes, in.isByz = selectByzantine(in.byzSeed, n, k)
	}
	for i := range in.crashAt {
		in.crashAt[i] = neverCrashes
	}
	for id, slot := range spec.CrashAt {
		if id >= 0 && id < n {
			in.crashAt[id] = slot
		}
	}
	if spec.CrashRate > 0 {
		from, until := spec.CrashFrom, spec.CrashUntil
		if until == 0 {
			until = horizon
		}
		if until <= from {
			until = from + 1
		}
		churnSeed := rng.Mix(seed, churnSalt)
		for i := 0; i < n; i++ {
			if in.crashAt[i] != neverCrashes {
				continue // explicit crash set wins
			}
			r := rng.New(rng.Mix(churnSeed, uint64(i)))
			if r.Float64() < spec.CrashRate {
				in.crashAt[i] = from + r.Intn(until-from)
			}
		}
	}
	return in
}

// selectByzantine picks the k Byzantine nodes of an n-node deployment: the
// k smallest values of hash(byzSeed, id), ties broken by the lower ID. An
// exact seeded k-subset — the same nodes for the same (seed, n, k) no matter
// how the run is scheduled or executed.
func selectByzantine(byzSeed uint64, n, k int) (nodes []int, isByz []bool) {
	ranked := make([]int, n)
	hash := make([]uint64, n)
	for i := 0; i < n; i++ {
		ranked[i] = i
		hash[i] = rng.Mix(byzSeed, uint64(i))
	}
	sort.Slice(ranked, func(a, b int) bool {
		ha, hb := hash[ranked[a]], hash[ranked[b]]
		if ha != hb {
			return ha < hb
		}
		return ranked[a] < ranked[b]
	})
	nodes = append(nodes, ranked[:k]...)
	sort.Ints(nodes)
	isByz = make([]bool, n)
	for _, id := range nodes {
		isByz[id] = true
	}
	return nodes, isByz
}

// BeginSlot runs before the slot is resolved: it reassigns the adversary's
// jammed channels on the field and advances the slot accounting. Reactive
// and adaptive models consume the previous slot's delivery observations
// here, then reset them for the coming slot.
func (in *Injector) BeginSlot(slot int, field *phy.Field) {
	in.slots++
	in.lastSlot = slot
	k := in.spec.JamChannels
	if k <= 0 {
		return
	}
	for _, c := range in.jammed {
		field.Jam(c, false)
	}
	in.jammed = in.jammed[:0]
	switch in.spec.JamModel {
	case JamRoundRobin:
		start := (slot * k) % in.channels
		for j := 0; j < k; j++ {
			in.jammed = append(in.jammed, (start+j)%in.channels)
		}
	case JamReactive:
		// Chase last slot's delivered traffic: jam the top-k channels by
		// decode count, ties to the lower index. With no history (first
		// slot, or an all-quiet slot) this degenerates to channels 0..k-1.
		in.jammed = topKChannels(in.jammed, k, func(c int) float64 { return float64(in.chanDecode[c]) }, in.channels)
	case JamAdaptive:
		// Fold last slot's observations into the decayed scores, then
		// ε-greedy: a per-slot seeded coin picks between exploring a fresh
		// random k-subset and exploiting the k best-scoring channels.
		for c := range in.chanScore {
			in.chanScore[c] = in.chanScore[c]*adaptiveDecay + float64(in.chanDecode[c])
		}
		r := rng.New(rng.Mix(in.jamSeed, uint64(slot)))
		if r.Float64() < adaptiveExplore {
			in.jammed = in.randomSubset(in.jammed, k, r)
		} else {
			in.jammed = topKChannels(in.jammed, k, func(c int) float64 { return in.chanScore[c] }, in.channels)
		}
	default: // JamOblivious
		// A fresh k-subset per slot via partial Fisher–Yates over a
		// per-slot seeded stream: deterministic in (seed, slot) alone.
		r := rng.New(rng.Mix(in.jamSeed, uint64(slot)))
		in.jammed = in.randomSubset(in.jammed, k, r)
	}
	if in.chanDecode != nil {
		for c := range in.chanDecode {
			in.chanDecode[c] = 0
		}
	}
	for _, c := range in.jammed {
		field.Jam(c, true)
	}
	in.jammedSlotChannels += len(in.jammed)
}

// randomSubset appends a k-subset of the channels to dst via partial
// Fisher–Yates over r, reusing in.perm as scratch.
func (in *Injector) randomSubset(dst []int, k int, r interface{ Intn(int) int }) []int {
	for i := range in.perm {
		in.perm[i] = i
	}
	for j := 0; j < k; j++ {
		swap := j + r.Intn(in.channels-j)
		in.perm[j], in.perm[swap] = in.perm[swap], in.perm[j]
		dst = append(dst, in.perm[j])
	}
	return dst
}

// topKChannels appends the k channels with the highest score to dst, ties
// broken toward the lower channel index — a deterministic selection over
// engine-observable state.
func topKChannels(dst []int, k int, score func(c int) float64, channels int) []int {
	for j := 0; j < k; j++ {
		best, bestScore := -1, math.Inf(-1)
		for c := 0; c < channels; c++ {
			taken := false
			for _, d := range dst {
				if d == c {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if s := score(c); s > bestScore {
				best, bestScore = c, s
			}
		}
		dst = append(dst, best)
	}
	return dst
}

// FilterTransmission runs once per transmission, in node order, before the
// slot is resolved. Honest nodes' traffic passes through untouched; a
// Byzantine transmitter's traffic is corrupted, equivocated, or dropped
// according to the strategy. Returning ok == false removes the transmission
// from the slot entirely (the silent traitor does not even radiate power).
func (in *Injector) FilterTransmission(slot int, tx phy.Tx) (phy.Tx, bool) {
	if in.isByz == nil || tx.Node < 0 || tx.Node >= len(in.isByz) || !in.isByz[tx.Node] {
		return tx, true
	}
	switch in.spec.Byz.Strategy {
	case ByzSilent:
		in.dropped++
		return tx, false
	case ByzEquivocate:
		if p, ok := tx.Msg.(Payload); ok {
			lie := rng.Mix(rng.Mix(rng.Mix(in.byzSeed, uint64(tx.Node)), uint64(slot)), uint64(tx.Channel))
			tx.Msg = p.WithPayloadValue(int64(lie % (1 << 20)))
			in.corrupted++
		}
	default: // ByzCorrupt
		if p, ok := tx.Msg.(Payload); ok {
			// A fixed per-node lie: the consistent liar tells everyone the
			// same wrong value for the whole run.
			lie := rng.Mix(in.byzSeed, uint64(tx.Node))
			tx.Msg = p.WithPayloadValue(int64(lie % (1 << 20)))
			in.corrupted++
		}
	}
	return tx, true
}

// FilterReception applies the loss process to one listener's outcome: a
// decoded message is suppressed with probability LossProb, decided by a pure
// hash of (seed, slot, node). A lost message degrades to sensed power —
// exactly how the SINR layer presents an undecodable transmission — so
// protocols cannot distinguish loss from collision. Deliveries that survive
// feed the reactive/adaptive jammers' per-channel observations.
func (in *Injector) FilterReception(slot, node, channel int, rec phy.Reception) phy.Reception {
	if !rec.Decoded {
		return rec
	}
	if p := in.spec.LossProb; p > 0 && unitFloat(rng.Mix(rng.Mix(in.lossSeed, uint64(slot)), uint64(node))) < p {
		in.lost++
		rec.Interference += rec.SignalPower
		rec.Decoded, rec.From, rec.Msg = false, -1, nil
		rec.SignalPower, rec.SINR = 0, 0
		return rec
	}
	in.delivered++
	if in.chanDecode != nil && channel >= 0 && channel < len(in.chanDecode) {
		in.chanDecode[channel]++
	}
	return rec
}

// CrashSlot returns the first slot at which node id is dead, or a value
// larger than any reachable slot if it never crashes.
func (in *Injector) CrashSlot(id int) int {
	if id < 0 || id >= len(in.crashAt) {
		return neverCrashes
	}
	return in.crashAt[id]
}

// Report summarizes the run so far.
func (in *Injector) Report() Report {
	rep := Report{
		Slots:              in.slots,
		Delivered:          in.delivered,
		Lost:               in.lost,
		JammedSlotChannels: in.jammedSlotChannels,
		ByzantineNodes:     append([]int(nil), in.byzNodes...),
		Corrupted:          in.corrupted,
		Dropped:            in.dropped,
	}
	for id, at := range in.crashAt {
		if at <= in.lastSlot {
			rep.CrashedNodes = append(rep.CrashedNodes, id)
		}
	}
	return rep
}

// unitFloat maps a 64-bit hash to [0, 1) with 53-bit resolution.
func unitFloat(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}
