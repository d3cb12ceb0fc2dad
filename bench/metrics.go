package main

// metricDef declares one reported metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports: what a user of the
// network simulator sees for one complete operation.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"node_slots_per_s", "1/s", "higher", 0.24},
	{"alloc_mb", "MB", "lower", 0.10},
	{"slots", "slots", "lower", 0.01},
	{"correct_frac", "ratio", "higher", 0.01},
}

// stageNames are the nine pipeline stages in schedule order, named as the
// facade's Plan().Stages names them.
var stageNames = [...]string{
	"dominate", "color", "announce", "csa", "elect",
	"followers", "tree", "backbone", "inform",
}

// perLayer are the metrics a traced run reports, layer by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.step_s", Unit: "s", Better: "lower"},
		{Name: "sim.ns_per_node_slot", Unit: "ns", Better: "lower"},
		{Name: "sim.active_slots", Unit: "slots", Better: "lower"},
		{Name: "sim.actions", Unit: "count", Better: "lower"},
		{Name: "phy.resolve_s", Unit: "s", Better: "lower"},
		{Name: "phy.tx", Unit: "count", Better: "lower"},
		{Name: "phy.rx", Unit: "count", Better: "lower"},
		{Name: "phy.pairs", Unit: "count", Better: "lower"},
		{Name: "phy.decodes", Unit: "count", Better: "higher"},
		{Name: "phy.decode_ratio", Unit: "ratio", Better: "higher"},
		{Name: "phy.ns_per_pair", Unit: "ns", Better: "lower"},
	}
	for _, s := range stageNames {
		defs = append(defs,
			metricDef{Name: "core." + s + ".slots", Unit: "slots", Better: "lower"},
			metricDef{Name: "core." + s + ".active_slots", Unit: "slots", Better: "lower"},
			metricDef{Name: "core." + s + ".s", Unit: "s", Better: "lower"},
			metricDef{Name: "core." + s + ".pairs", Unit: "count", Better: "lower"},
		)
	}
	return append(defs,
		metricDef{Name: "fault.s", Unit: "s", Better: "lower"},
		metricDef{Name: "fault.lost", Unit: "count", Better: "lower"},
		metricDef{Name: "fault.jammed", Unit: "count", Better: "lower"},
		metricDef{Name: "fault.corrupted", Unit: "count", Better: "lower"},
		metricDef{Name: "fault.crashed", Unit: "count", Better: "lower"},
		metricDef{Name: "coloring.rounds", Unit: "slots", Better: "lower"},
		metricDef{Name: "coloring.palette", Unit: "colors", Better: "lower"},
		metricDef{Name: "coloring.cycle", Unit: "slots", Better: "lower"},
		metricDef{Name: "coloring.color_slots", Unit: "slots", Better: "lower"},
		metricDef{Name: "batch.serial_s", Unit: "s", Better: "lower"},
		metricDef{Name: "batch.efficiency", Unit: "ratio", Better: "higher"},
		metricDef{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	)
}()

// infoDefs are outcome measures printed for reading but not gated: each
// applies to some workloads only, or is 0 on a healthy run, so none can be
// an end-to-end metric with a bound. correct_frac folds the first three
// into one gated number; failed_frac is the result line's failed/attempted.
var infoDefs = []metricDef{
	{Name: "exact_frac", Unit: "ratio", Better: "higher"},
	{Name: "agree_frac", Unit: "ratio", Better: "higher"},
	{Name: "conflicts", Unit: "edges", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// unitOf returns the declared unit of a metric name across all tables.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer, infoDefs} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
