package mcnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"mcnet/internal/fault"
)

// ScenarioSpec describes a deterministic fault-intensity sweep: one
// deployment configuration run across a grid of loss probabilities,
// jammed-channel counts, churn rates and Byzantine fractions, with a fixed
// number of seeded repetitions per grid point. RunScenario executes it;
// Compile expands it into its work items. It is also the stable JSON
// document shared by the scenario service (POST /v1/jobs) and the CLI
// (mcscenario -spec file.json): topologies, aggregators and jam models are
// named by string, so specs survive serialization, persistence and
// cross-process submission unchanged.
//
// Zero/absent fields take the option defaults: topology "crowd", 4
// channels, op "sum", jam model "oblivious", byz strategy "corrupt", 1 seed
// per point, base seed 1, and every empty sweep axis widened to {0}.
// Execution knobs (worker count, progress callbacks) are deliberately not
// part of the document: they belong to whoever runs the spec
// (BatchOptions), not to the spec.
type ScenarioSpec struct {
	// Name titles the report (default "scenario").
	Name string `json:"name,omitempty"`
	// N is the node count, in [2, 65536].
	N int `json:"n"`
	// Topology names the deployment generator: crowd, uniform, grid, line
	// or ring (default crowd). TopologyParam feeds the parameterized ones —
	// target degree for uniform (default 12), spacing as a fraction of the
	// communication radius for line and ring (default 0.7) — and must be 0
	// for the parameterless crowd and grid.
	Topology      string  `json:"topology,omitempty"`
	TopologyParam float64 `json:"topology_param,omitempty"`
	// Channels is the number of radio channels (default 4).
	Channels int `json:"channels,omitempty"`
	// Loss, Jam, Churn and Byz are the sweep axes: loss probabilities,
	// jammed-channel counts, rate-based churn probabilities and Byzantine
	// node fractions. Every value must pass the fault layer's range rules
	// (jam counts must leave one channel usable).
	Loss  []float64 `json:"loss,omitempty"`
	Jam   []int     `json:"jam,omitempty"`
	Churn []float64 `json:"churn,omitempty"`
	Byz   []float64 `json:"byz,omitempty"`
	// ByzStrategy names what Byzantine nodes do: corrupt, equivocate or
	// silent (default corrupt).
	ByzStrategy string `json:"byz_strategy,omitempty"`
	// JamModel names the jamming adversary: oblivious, roundrobin, reactive
	// or adaptive (default oblivious).
	JamModel string `json:"jam_model,omitempty"`
	// Seeds is the number of repetitions per grid point (default 1);
	// repetition s runs with seed BaseSeed + s (BaseSeed default 1). Grid
	// points × seeds must not exceed 65536.
	Seeds    int    `json:"seeds,omitempty"`
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// Op names the aggregate: sum, max or min (default sum).
	Op string `json:"op,omitempty"`
}

// specFieldError reports a validation failure against one named field of a
// spec document, so clients see which field to fix.
func specFieldError(field, format string, args ...any) error {
	return fmt.Errorf("mcnet: spec field %q: %s", field, fmt.Sprintf(format, args...))
}

// topologyByName resolves a spec's topology name and parameter. The empty
// name means crowd; param = 0 means the generator's default.
func topologyByName(name string, param float64) (Topology, error) {
	switch name {
	case "", "crowd":
		if param != 0 {
			return nil, specFieldError("topology_param", "%v given but topology %q takes no parameter", param, "crowd")
		}
		return Crowd, nil
	case "grid":
		if param != 0 {
			return nil, specFieldError("topology_param", "%v given but topology %q takes no parameter", param, "grid")
		}
		return Grid, nil
	case "uniform":
		if param == 0 {
			param = 12
		}
		if param < 0 || param != param {
			return nil, specFieldError("topology_param", "target degree %v must be > 0", param)
		}
		return Uniform(param), nil
	case "line", "ring":
		if param == 0 {
			param = 0.7
		}
		if param <= 0 || param > 1 || param != param {
			return nil, specFieldError("topology_param", "spacing fraction %v must be in (0, 1]", param)
		}
		if name == "line" {
			return Line(param), nil
		}
		return Ring(param), nil
	default:
		return nil, specFieldError("topology", "unknown topology %q (valid: crowd, uniform, grid, line, ring)", name)
	}
}

// JamModelNames lists the valid jam-model spec/CLI names in declaration
// order — the single list validation errors and CLI usage strings print.
func JamModelNames() []string { return fault.JamModelNames() }

// ByzStrategyNames lists the valid Byzantine-strategy spec/CLI names in
// declaration order.
func ByzStrategyNames() []string { return fault.ByzStrategyNames() }

// aggregatorByName resolves a spec's op name; empty means sum.
func aggregatorByName(name string) (Aggregator, error) {
	switch strings.ToLower(name) {
	case "", "sum":
		return Sum, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	default:
		return nil, specFieldError("op", "unknown aggregate %q (valid: sum, max, min)", name)
	}
}

// Spec documents arrive from outside the process (the scenario service,
// mcscenario -spec), so validation bounds their size before anything is
// allocated: n is at most maxSpecNodes, channels at most maxSpecChannels
// (the field and the fault layer allocate per channel; E1 sweeps F ≤ 16)
// and grid points × seeds at most maxSpecRuns.
const (
	maxSpecNodes    = 1 << 16
	maxSpecChannels = 1 << 10
	maxSpecRuns     = 1 << 16
)

// firstFault returns the index and fault-layer error of the first value
// of a sweep axis that fault.Spec.Validate rejects once set has written it
// into an otherwise empty spec.
func firstFault[T any](axis []T, n, channels int, set func(*fault.Spec, T)) (int, error) {
	for i, v := range axis {
		var fs fault.Spec
		set(&fs, v)
		if err := fs.Validate(n, channels); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// Validate checks every field of the document and returns the first
// field-level error, or nil for a runnable spec. It applies exactly the
// rules Compile applies, so a validated spec always compiles.
func (sp ScenarioSpec) Validate() error {
	_, err := sp.resolve()
	return err
}

// resolve validates the document and returns its sweep with names resolved
// and defaults applied, but without the expanded work items.
func (sp ScenarioSpec) resolve() (*Sweep, error) {
	if sp.N < 2 || sp.N > maxSpecNodes {
		return nil, specFieldError("n", "%d must be in [2, %d]", sp.N, maxSpecNodes)
	}
	topo, err := topologyByName(sp.Topology, sp.TopologyParam)
	if err != nil {
		return nil, err
	}
	channels := sp.Channels
	if channels == 0 {
		channels = 4
	}
	if channels < 1 || channels > maxSpecChannels {
		return nil, specFieldError("channels", "%d must be in [1, %d]", sp.Channels, maxSpecChannels)
	}
	if i, err := firstFault(sp.Loss, sp.N, channels, func(fs *fault.Spec, v float64) { fs.LossProb = v }); err != nil {
		return nil, specFieldError(fmt.Sprintf("loss[%d]", i), "%v", err)
	}
	if i, err := firstFault(sp.Jam, sp.N, channels, func(fs *fault.Spec, v int) { fs.JamChannels = v }); err != nil {
		return nil, specFieldError(fmt.Sprintf("jam[%d]", i), "%v", err)
	}
	if i, err := firstFault(sp.Churn, sp.N, channels, func(fs *fault.Spec, v float64) { fs.CrashRate = v }); err != nil {
		return nil, specFieldError(fmt.Sprintf("churn[%d]", i), "%v", err)
	}
	if i, err := firstFault(sp.Byz, sp.N, channels, func(fs *fault.Spec, v float64) { fs.Byz.Fraction = v }); err != nil {
		return nil, specFieldError(fmt.Sprintf("byz[%d]", i), "%v", err)
	}
	strategy, err := fault.ParseByzStrategy(sp.ByzStrategy)
	if err != nil {
		return nil, specFieldError("byz_strategy", "%v", err)
	}
	model, err := fault.ParseJamModel(sp.JamModel)
	if err != nil {
		return nil, specFieldError("jam_model", "%v", err)
	}
	if sp.Seeds < 0 {
		return nil, specFieldError("seeds", "%d must be ≥ 0 (0 means 1)", sp.Seeds)
	}
	sw := &Sweep{
		name:        sp.Name,
		n:           sp.N,
		seeds:       max(sp.Seeds, 1),
		baseSeed:    sp.BaseSeed,
		jamModel:    JamModel(model),
		byzStrategy: ByzStrategy(strategy),
		base:        []Option{WithTopology(topo), Channels(channels)},
	}
	if sw.name == "" {
		sw.name = "scenario"
	}
	if sw.baseSeed == 0 {
		sw.baseSeed = 1
	}
	sw.loss, sw.jam, sw.churn, sw.byz = widen(sp.Loss), widen(sp.Jam), widen(sp.Churn), widen(sp.Byz)
	runs := sw.seeds
	for _, k := range []int{len(sw.loss), len(sw.jam), len(sw.churn), len(sw.byz)} {
		if runs > maxSpecRuns/k {
			return nil, specFieldError("seeds", "grid points × seeds must be ≤ %d", maxSpecRuns)
		}
		runs *= k
	}
	if sw.op, err = aggregatorByName(sp.Op); err != nil {
		return nil, err
	}
	return sw, nil
}

// widen returns a copy of a sweep axis, or {0} when the axis is empty.
func widen[T int | float64](axis []T) []T {
	if len(axis) == 0 {
		return []T{0}
	}
	return append([]T(nil), axis...)
}

// Compile validates the document and expands it into its sweep: one
// RunSpec per (loss, jam, churn, byz, repetition) in nested-loop order.
func (sp ScenarioSpec) Compile() (*Sweep, error) {
	sw, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	sw.specs = make([]RunSpec, 0, len(sw.loss)*len(sw.jam)*len(sw.churn)*len(sw.byz)*sw.seeds)
	for _, lp := range sw.loss {
		for _, k := range sw.jam {
			for _, cr := range sw.churn {
				for _, bf := range sw.byz {
					for rep := 0; rep < sw.seeds; rep++ {
						sw.specs = append(sw.specs, RunSpec{
							Seed:        sw.baseSeed + uint64(rep),
							Loss:        lp,
							Jam:         k,
							JamModel:    sw.jamModel,
							Churn:       ChurnSpec{Rate: cr},
							Byz:         bf,
							ByzStrategy: sw.byzStrategy,
							Faulted:     true,
							Op:          sw.op,
						})
					}
				}
			}
		}
	}
	sw.deploy = newDeploySet(sw.n, sw.base, sw.specs)
	return sw, nil
}

// ParseScenarioSpec decodes and validates one spec document. Decoding is
// strict: unknown fields are rejected (they are usually typos), trailing
// garbage after the document is an error, and validation failures name the
// offending field.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) {
	var sp ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return ScenarioSpec{}, fmt.Errorf("mcnet: parsing scenario spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(extra) > 0 {
		return ScenarioSpec{}, fmt.Errorf("mcnet: parsing scenario spec: trailing data after document")
	}
	if err := sp.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	return sp, nil
}
