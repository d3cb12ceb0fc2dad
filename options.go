package mcnet

import (
	"fmt"

	"mcnet/internal/coloring"
	"mcnet/internal/fault"
)

// settings collects everything New takes from its options; the Network
// keeps it. Zero-valued fields fall back to documented defaults.
type settings struct {
	channels int
	seed     uint64
	topo     Topology
	maxSlots int // 0 = the simulator's built-in bound

	// faults is the run's fault/dynamics spec; faulted records that a fault
	// option was given (even at zero intensity), which attaches the
	// injection layer and surfaces a FaultReport in results.
	faults  fault.Spec
	faulted bool

	colorer string // coloring backend name; "" = sec7
}

func defaultSettings() settings {
	return settings{channels: 4, seed: 1, topo: Crowd}
}

// Option configures a Network under construction.
type Option func(*settings) error

// Channels sets the number F of non-overlapping radio channels (default 4).
func Channels(f int) Option {
	return func(s *settings) error {
		if f < 1 {
			return fmt.Errorf("mcnet: channels = %d must be ≥ 1", f)
		}
		s.channels = f
		return nil
	}
}

// Seed sets the run seed (default 1). Layouts and every protocol run are
// deterministic functions of the seed, so two Networks built with equal
// options behave identically.
func Seed(seed uint64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithTopology selects the node placement and its derived pipeline sizing
// (default Crowd). See Topology for the built-in generators.
func WithTopology(t Topology) Option {
	return func(s *settings) error {
		if t == nil {
			return fmt.Errorf("mcnet: topology must not be nil")
		}
		s.topo = t
		return nil
	}
}

// MaxSlots caps a run's slot count as a safety net (default: the
// simulator's built-in bound).
func MaxSlots(v int) Option {
	return func(s *settings) error {
		if v < 1 {
			return fmt.Errorf("mcnet: MaxSlots = %d must be ≥ 1", v)
		}
		s.maxSlots = v
		return nil
	}
}

// Colorer selects the coloring backend Color runs (default "sec7"):
//
//   - "sec7": the paper's Sec. 7 procedures on the aggregation structure —
//     colors k·φ + i from within-cluster indices and cluster colors.
//   - "dplus1": degree+1 list coloring by randomized palette trials over an
//     ID-TDMA substrate; palette ≤ Δ+1, no structure construction.
//   - "hsb": hypergraph symmetry breaking — an MIS elects color 0, members
//     fill multi-channel TDMA pairs (slot, channel); the induced cycle is
//     about (Δ+1)/F.
//
// Every backend runs on the same slot engine, so fault injection and seed
// determinism apply uniformly. ColorerNames lists the valid names.
func Colorer(name string) Option {
	return func(s *settings) error {
		if _, err := coloring.ByName(name); err != nil {
			return fmt.Errorf("mcnet: %w", err)
		}
		s.colorer = name
		return nil
	}
}

// ColorerNames lists the registered coloring backend names, default first.
func ColorerNames() []string { return coloring.Names() }

// JamModel selects the jamming adversary's channel-selection strategy for
// the Jamming option.
type JamModel int

const (
	// JamOblivious draws the jammed channels fresh each slot from a seeded
	// RNG independent of the execution — the oblivious adversary.
	JamOblivious JamModel = JamModel(fault.JamOblivious)
	// JamRoundRobin sweeps a block of k consecutive channels cyclically
	// across the channel space, one step per slot — a deterministic
	// adversary that disrupts every channel equally over time.
	JamRoundRobin JamModel = JamModel(fault.JamRoundRobin)
	// JamReactive jams the k channels that carried the most decoded traffic
	// in the previous slot — an eavesdropping adversary that chases the
	// protocol's actual schedule. Still deterministic: it observes only
	// engine-resolved state, so replays are bit-identical across exec modes
	// and worker counts.
	JamReactive JamModel = JamModel(fault.JamReactive)
	// JamAdaptive is a seeded ε-greedy bandit over channels: it learns which
	// channels carry traffic from decayed per-channel delivery scores and
	// occasionally explores a fresh random subset.
	JamAdaptive JamModel = JamModel(fault.JamAdaptive)
)

// String returns the model's CLI/spec name.
func (m JamModel) String() string { return fault.JamModel(m).String() }

// ByzStrategy selects what Byzantine nodes do with their own transmissions
// (see the Byzantine option).
type ByzStrategy int

const (
	// ByzCorrupt replaces every aggregation payload the node sends with a
	// fixed seeded lie — a consistent liar.
	ByzCorrupt ByzStrategy = ByzStrategy(fault.ByzCorrupt)
	// ByzEquivocate sends a different seeded lie per (slot, channel) — the
	// classic equivocation attack.
	ByzEquivocate ByzStrategy = ByzStrategy(fault.ByzEquivocate)
	// ByzSilent drops every transmission the node attempts while it keeps
	// its protocol role — a fail-silent traitor.
	ByzSilent ByzStrategy = ByzStrategy(fault.ByzSilent)
)

// String returns the strategy's CLI/spec name: corrupt, equivocate or silent.
func (s ByzStrategy) String() string { return fault.ByzStrategy(s).String() }

// ParseByzStrategy maps a name from ByzStrategyNames, in any case ("" means
// corrupt), to its ByzStrategy.
func ParseByzStrategy(name string) (ByzStrategy, error) {
	st, err := fault.ParseByzStrategy(name)
	if err != nil {
		return ByzCorrupt, fmt.Errorf("mcnet: %w", err)
	}
	return ByzStrategy(st), nil
}

// ChurnSpec configures node churn for the Churn option. Both mechanisms may
// be combined; explicit crashes win over the rate process on the same node.
type ChurnSpec struct {
	// CrashAt maps node IDs to the first slot at which they are dead: from
	// that slot on the node performs no further radio actions. IDs are
	// validated against the deployment at New time.
	CrashAt map[int]int
	// Rate crashes each remaining node independently with this probability
	// in [0, 1], at a seeded slot drawn uniformly from [From, Until).
	// Until = 0 means the run's full slot budget.
	Rate        float64
	From, Until int
}

// Loss sets a per-reception Bernoulli message-loss probability p in [0, 1]:
// every decoded message is independently suppressed with probability p,
// decided by a pure hash of (seed, slot, listener) so transcripts replay
// bit-identically. A lost message degrades to sensed power, exactly how the
// SINR layer presents an undecodable transmission. Loss(0) attaches the
// fault layer (results gain a FaultReport) but reproduces the fault-free
// transcript bit-for-bit.
//
// The fault options only record the spec; New validates the combined spec
// (ranges, jam headroom, crash-set node IDs) once the deployment is known,
// so fault.Spec.Validate stays the single rule set.
func Loss(p float64) Option {
	return func(s *settings) error {
		s.faults.LossProb = p
		s.faulted = true
		return nil
	}
}

// Jamming sets an adversary that jams k channels every slot under the given
// model: nothing decodes on a jammed channel, but listeners still sense its
// power, as a real jammer would present. k must leave at least one channel
// usable (k < Channels, checked at New time). Jamming(0, model) attaches
// the fault layer without jamming anything.
func Jamming(k int, model JamModel) Option {
	return func(s *settings) error {
		s.faults.JamChannels = k
		s.faults.JamModel = fault.JamModel(model)
		s.faulted = true
		return nil
	}
}

// Byzantine marks a seeded-hash-chosen fraction of the deployment as
// Byzantine: instead of failing, those nodes keep playing their protocol
// roles while lying. Under ByzCorrupt every aggregation payload they send is
// replaced by a fixed seeded lie; under ByzEquivocate the lie differs per
// (slot, channel); under ByzSilent their transmissions are dropped entirely
// (they still listen, hold roles, and never look crashed). Membership is an
// exact seeded k-subset (k = round(fraction·n)), so the same seed always
// corrupts the same nodes. Byzantine(0, ...) attaches the fault layer but
// reproduces the fault-free transcript bit-for-bit.
//
// Survivor metrics (SurvivorsExact, SurvivorsAgreeing, ...) count honest
// nodes only; the chosen membership is reported in FaultReport.
func Byzantine(fraction float64, strategy ByzStrategy) Option {
	return func(s *settings) error {
		s.faults.Byz.Fraction = fraction
		s.faults.Byz.Strategy = fault.ByzStrategy(strategy)
		s.faulted = true
		return nil
	}
}

// Churn sets node churn: nodes crash at explicit slots (spec.CrashAt)
// and/or at seeded random slots (spec.Rate). A crashed node performs no
// radio action at or after its crash slot; the run always completes and the
// result reports how gracefully the survivors degraded. An empty spec
// attaches the fault layer without crashing anyone.
func Churn(spec ChurnSpec) Option {
	return func(s *settings) error {
		if len(spec.CrashAt) > 0 {
			s.faults.CrashAt = make(map[int]int, len(spec.CrashAt))
			for id, slot := range spec.CrashAt {
				s.faults.CrashAt[id] = slot
			}
		} else {
			s.faults.CrashAt = nil
		}
		s.faults.CrashRate = spec.Rate
		s.faults.CrashFrom, s.faults.CrashUntil = spec.From, spec.Until
		s.faulted = true
		return nil
	}
}
