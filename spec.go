package mcnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// ScenarioSpec is the stable JSON document form of a Scenario — the wire
// format shared by the scenario service (POST /v1/jobs) and the CLI
// (mcscenario -spec file.json). It names topologies, aggregators and jam
// models by string instead of carrying Go values, so specs survive
// serialization, persistence and cross-process submission unchanged.
//
// Zero/absent fields take the same defaults as the corresponding Scenario
// and option fields: topology "crowd", 4 channels, op "sum", jam model
// "oblivious", 1 seed per point, base seed 1, and every empty sweep axis
// widened to {0}. Execution knobs (worker count, progress callbacks) are
// deliberately not part of the document: they belong to whoever runs the
// spec, not to the spec.
type ScenarioSpec struct {
	// Name titles the report (default "scenario").
	Name string `json:"name,omitempty"`
	// N is the node count (≥ 2).
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
	// Loss, Jam, Churn and Byz are the sweep axes, with Scenario's
	// semantics (Byz is the Byzantine-fraction axis).
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
	// repetition s runs with seed BaseSeed + s (BaseSeed default 1).
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
func JamModelNames() []string {
	return []string{"oblivious", "roundrobin", "reactive", "adaptive"}
}

// ByzStrategyNames lists the valid Byzantine-strategy spec/CLI names.
func ByzStrategyNames() []string {
	return []string{"corrupt", "equivocate", "silent"}
}

// jamModelByName resolves a spec's jam-model name; empty means oblivious.
func jamModelByName(name string) (JamModel, error) {
	switch strings.ToLower(name) {
	case "", "oblivious":
		return JamOblivious, nil
	case "roundrobin":
		return JamRoundRobin, nil
	case "reactive":
		return JamReactive, nil
	case "adaptive":
		return JamAdaptive, nil
	default:
		return 0, specFieldError("jam_model", "unknown jam model %q (valid: %s)", name, strings.Join(JamModelNames(), ", "))
	}
}

// jamModelName is the inverse of jamModelByName for the known models.
func jamModelName(m JamModel) (string, error) {
	switch m {
	case JamOblivious, JamRoundRobin, JamReactive, JamAdaptive:
		return m.String(), nil
	default:
		return "", fmt.Errorf("mcnet: jam model %d has no spec name", int(m))
	}
}

// byzStrategyByName resolves a spec's Byzantine-strategy name; empty means
// corrupt.
func byzStrategyByName(name string) (ByzStrategy, error) {
	st, err := ParseByzStrategy(strings.ToLower(name))
	if err != nil {
		return 0, specFieldError("byz_strategy", "unknown byzantine strategy %q (valid: %s)", name, strings.Join(ByzStrategyNames(), ", "))
	}
	return st, nil
}

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

// Validate checks every field of the document and returns the first
// field-level error, or nil for a runnable spec. It applies exactly the
// rules Scenario compilation applies, so a validated spec always compiles.
func (sp ScenarioSpec) Validate() error {
	if sp.N < 2 {
		return specFieldError("n", "%d must be ≥ 2", sp.N)
	}
	if _, err := topologyByName(sp.Topology, sp.TopologyParam); err != nil {
		return err
	}
	channels := sp.Channels
	if channels == 0 {
		channels = 4
	}
	if channels < 1 {
		return specFieldError("channels", "%d must be ≥ 1", sp.Channels)
	}
	for i, lp := range sp.Loss {
		if lp < 0 || lp > 1 || lp != lp {
			return specFieldError(fmt.Sprintf("loss[%d]", i), "%v must be in [0, 1]", lp)
		}
	}
	for i, k := range sp.Jam {
		if k < 0 {
			return specFieldError(fmt.Sprintf("jam[%d]", i), "%d must be ≥ 0", k)
		}
		if k >= channels {
			return specFieldError(fmt.Sprintf("jam[%d]", i), "%d jams every one of %d channels; leave at least one usable", k, channels)
		}
	}
	for i, cr := range sp.Churn {
		if cr < 0 || cr > 1 || cr != cr {
			return specFieldError(fmt.Sprintf("churn[%d]", i), "%v must be in [0, 1]", cr)
		}
	}
	for i, bf := range sp.Byz {
		if bf < 0 || bf > 1 || bf != bf {
			return specFieldError(fmt.Sprintf("byz[%d]", i), "%v must be in [0, 1]", bf)
		}
	}
	if _, err := byzStrategyByName(sp.ByzStrategy); err != nil {
		return err
	}
	if _, err := jamModelByName(sp.JamModel); err != nil {
		return err
	}
	if sp.Seeds < 0 {
		return specFieldError("seeds", "%d must be ≥ 0 (0 means 1)", sp.Seeds)
	}
	_, err := aggregatorByName(sp.Op)
	return err
}

// Scenario converts the validated document into a runnable Scenario. The
// returned scenario carries no Workers or Progress — set those per
// execution.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	topo, err := topologyByName(sp.Topology, sp.TopologyParam)
	if err != nil {
		return Scenario{}, err
	}
	model, err := jamModelByName(sp.JamModel)
	if err != nil {
		return Scenario{}, err
	}
	byzStrategy, err := byzStrategyByName(sp.ByzStrategy)
	if err != nil {
		return Scenario{}, err
	}
	op, err := aggregatorByName(sp.Op)
	if err != nil {
		return Scenario{}, err
	}
	channels := sp.Channels
	if channels == 0 {
		channels = 4
	}
	return Scenario{
		Name:        sp.Name,
		N:           sp.N,
		Options:     []Option{WithTopology(topo), Channels(channels)},
		Loss:        append([]float64(nil), sp.Loss...),
		Jam:         append([]int(nil), sp.Jam...),
		Churn:       append([]float64(nil), sp.Churn...),
		Byz:         append([]float64(nil), sp.Byz...),
		ByzStrategy: byzStrategy,
		JamModel:    model,
		Seeds:       sp.Seeds,
		BaseSeed:    sp.BaseSeed,
		Op:          op,
	}, nil
}

// Compile expands the document straight into its executable sweep —
// shorthand for Scenario() followed by Scenario.Compile.
func (sp ScenarioSpec) Compile() (*Sweep, error) {
	sc, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	return sc.Compile()
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

// runSpecWire is RunSpec's JSON shape: jam model and op by name, churn as
// a nested object elided when empty.
type runSpecWire struct {
	Seed        uint64         `json:"seed"`
	Loss        float64        `json:"loss,omitempty"`
	Jam         int            `json:"jam,omitempty"`
	JamModel    string         `json:"jam_model,omitempty"`
	Churn       *churnSpecWire `json:"churn,omitempty"`
	Byz         float64        `json:"byz,omitempty"`
	ByzStrategy string         `json:"byz_strategy,omitempty"`
	Faulted     bool           `json:"faulted,omitempty"`
	Values      []int64        `json:"values,omitempty"`
	Op          string         `json:"op,omitempty"`
}

type churnSpecWire struct {
	CrashAt map[int]int `json:"crash_at,omitempty"`
	Rate    float64     `json:"rate,omitempty"`
	From    int         `json:"from,omitempty"`
	Until   int         `json:"until,omitempty"`
}

// MarshalJSON encodes the spec with jam model and aggregate by name. Only
// the built-in aggregators (Sum, Max, Min) are representable; a custom
// Aggregator yields an error rather than a document that cannot round-trip.
func (rs RunSpec) MarshalJSON() ([]byte, error) {
	w := runSpecWire{
		Seed:    rs.Seed,
		Loss:    rs.Loss,
		Jam:     rs.Jam,
		Byz:     rs.Byz,
		Faulted: rs.Faulted,
		Values:  rs.Values,
	}
	if rs.Jam != 0 || rs.JamModel != JamOblivious {
		name, err := jamModelName(rs.JamModel)
		if err != nil {
			return nil, err
		}
		w.JamModel = name
	}
	if rs.Byz != 0 || rs.ByzStrategy != ByzCorrupt {
		if !validByzStrategy(rs.ByzStrategy) {
			return nil, fmt.Errorf("mcnet: byzantine strategy %d has no spec name", int(rs.ByzStrategy))
		}
		w.ByzStrategy = rs.ByzStrategy.String()
	}
	if rs.Churn.Rate != 0 || len(rs.Churn.CrashAt) > 0 || rs.Churn.From != 0 || rs.Churn.Until != 0 {
		w.Churn = &churnSpecWire{
			CrashAt: rs.Churn.CrashAt,
			Rate:    rs.Churn.Rate,
			From:    rs.Churn.From,
			Until:   rs.Churn.Until,
		}
	}
	if rs.Op != nil {
		name := strings.ToLower(rs.Op.Name())
		if _, err := aggregatorByName(name); err != nil {
			return nil, fmt.Errorf("mcnet: aggregator %q is not a built-in (sum, max, min) and cannot be serialized", rs.Op.Name())
		}
		w.Op = name
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes and validates one run spec: ranges are checked
// with field-level errors and names are resolved to the built-ins, so a
// decoded spec is immediately runnable.
func (rs *RunSpec) UnmarshalJSON(data []byte) error {
	var w runSpecWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("mcnet: parsing run spec: %w", err)
	}
	if w.Loss < 0 || w.Loss > 1 || w.Loss != w.Loss {
		return specFieldError("loss", "%v must be in [0, 1]", w.Loss)
	}
	if w.Jam < 0 {
		return specFieldError("jam", "%d must be ≥ 0", w.Jam)
	}
	model, err := jamModelByName(w.JamModel)
	if err != nil {
		return err
	}
	if w.Byz < 0 || w.Byz > 1 || w.Byz != w.Byz {
		return specFieldError("byz", "%v must be in [0, 1]", w.Byz)
	}
	byzStrategy, err := byzStrategyByName(w.ByzStrategy)
	if err != nil {
		return err
	}
	var churn ChurnSpec
	if w.Churn != nil {
		if w.Churn.Rate < 0 || w.Churn.Rate > 1 || w.Churn.Rate != w.Churn.Rate {
			return specFieldError("churn.rate", "%v must be in [0, 1]", w.Churn.Rate)
		}
		churn = ChurnSpec{
			CrashAt: w.Churn.CrashAt,
			Rate:    w.Churn.Rate,
			From:    w.Churn.From,
			Until:   w.Churn.Until,
		}
	}
	var op Aggregator
	if w.Op != "" {
		if op, err = aggregatorByName(w.Op); err != nil {
			return err
		}
	}
	*rs = RunSpec{
		Seed:        w.Seed,
		Loss:        w.Loss,
		Jam:         w.Jam,
		JamModel:    model,
		Churn:       churn,
		Byz:         w.Byz,
		ByzStrategy: byzStrategy,
		Faulted:     w.Faulted,
		Values:      w.Values,
		Op:          op,
	}
	return nil
}
