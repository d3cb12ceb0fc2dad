package mcnet

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// faultRun aggregates once on a fresh network and returns the result plus
// the run's event log, sorted into a canonical order (ordering between
// different nodes' events within a slot is unspecified).
func faultRun(t *testing.T, n int, values []int64, opts ...Option) (*AggregateResult, []Event) {
	t.Helper()
	nw, err := New(n, append([]Option{Channels(4), Seed(77)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		log []Event
	)
	nw.Events(func(ev Event) {
		mu.Lock()
		log = append(log, ev)
		mu.Unlock()
	})
	res, err := nw.Aggregate(context.Background(), values, Sum)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(log, func(i, j int) bool {
		a, b := log[i], log[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Value < b.Value
	})
	return res, log
}

func seqValues(n int) []int64 {
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	return values
}

// TestFaultOptionValidation covers the new options' argument checks, both
// at option time and the cross-field checks at New time.
func TestFaultOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opts []Option
	}{
		{"negative loss", []Option{Loss(-0.1)}},
		{"loss above one", []Option{Loss(1.5)}},
		{"negative jam", []Option{Jamming(-1, JamOblivious)}},
		{"unknown jam model", []Option{Jamming(1, JamModel(7))}},
		{"jam all channels", []Option{Channels(2), Jamming(2, JamOblivious)}},
		{"churn rate", []Option{Churn(ChurnSpec{Rate: 1.5})}},
		{"churn window", []Option{Churn(ChurnSpec{Rate: 0.1, From: 9, Until: 9})}},
		{"churn negative slot", []Option{Churn(ChurnSpec{CrashAt: map[int]int{0: -1}})}},
		{"churn unknown node", []Option{Churn(ChurnSpec{CrashAt: map[int]int{99: 5}})}},
		{"negative byz fraction", []Option{Byzantine(-0.1, ByzCorrupt)}},
		{"byz fraction above one", []Option{Byzantine(1.5, ByzCorrupt)}},
		{"unknown byz strategy", []Option{Byzantine(0.2, ByzStrategy(9))}},
	}
	for _, tc := range bad {
		if _, err := New(16, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := [][]Option{
		{Loss(0.5)},
		{Jamming(2, JamRoundRobin)},
		{Churn(ChurnSpec{Rate: 0.3, From: 10, Until: 50})},
		{Churn(ChurnSpec{CrashAt: map[int]int{0: 5, 15: 0}})},
		{Loss(0), Jamming(0, JamOblivious), Churn(ChurnSpec{})},
		{Byzantine(0.25, ByzEquivocate)},
		{Byzantine(3.0/16, ByzSilent)},
		{Jamming(1, JamReactive)},
		{Jamming(2, JamAdaptive)},
	}
	for i, opts := range good {
		if _, err := New(16, opts...); err != nil {
			t.Errorf("good options %d rejected: %v", i, err)
		}
	}
}

// TestZeroIntensityFaultsReplayFaultFree is the acceptance property: Loss(0),
// Jamming(0) and an empty Churn spec attach the fault layer but reproduce
// the fault-free transcript bit-identically — same result, same event log —
// while reporting zero fault activity.
func TestZeroIntensityFaultsReplayFaultFree(t *testing.T) {
	const n = 48
	values := seqValues(n)
	base, baseLog := faultRun(t, n, values)
	zero, zeroLog := faultRun(t, n, values,
		Loss(0), Jamming(0, JamRoundRobin), Churn(ChurnSpec{}), Byzantine(0, ByzEquivocate))

	if base.Faults != nil {
		t.Fatal("fault-free run carries a FaultReport")
	}
	fr := zero.Faults
	if fr == nil {
		t.Fatal("zero-intensity run has no FaultReport")
	}
	if fr.Lost != 0 || fr.JammedSlotChannels != 0 || len(fr.CrashedNodes) != 0 {
		t.Errorf("zero-intensity faults reported activity: %+v", fr)
	}
	if len(fr.ByzantineNodes) != 0 || fr.Corrupted != 0 || fr.Dropped != 0 {
		t.Errorf("zero-intensity byzantine spec reported activity: %+v", fr)
	}
	if fr.Survivors != n || fr.SurvivorsInformed != zero.Informed || fr.SurvivorsExact != zero.Exact {
		t.Errorf("zero-intensity survivor counts %+v disagree with result (informed %d, exact %d)",
			fr, zero.Informed, zero.Exact)
	}
	if fr.Delivered == 0 {
		t.Error("zero-intensity run delivered nothing")
	}
	zero.Faults = nil
	if !reflect.DeepEqual(base, zero) {
		t.Error("zero-intensity faults changed the aggregate result")
	}
	if !reflect.DeepEqual(baseLog, zeroLog) {
		t.Errorf("zero-intensity faults changed the event log: %d vs %d events", len(baseLog), len(zeroLog))
	}
}

// TestFaultGoldenTranscripts: for every fault model, the same seed and the
// same spec replay an identical event log, result and fault report.
func TestFaultGoldenTranscripts(t *testing.T) {
	const n = 40
	values := seqValues(n)
	models := []struct {
		name string
		opts []Option
	}{
		{"loss", []Option{Loss(0.2)}},
		{"jam-oblivious", []Option{Jamming(1, JamOblivious)}},
		{"jam-roundrobin", []Option{Jamming(1, JamRoundRobin)}},
		{"churn-rate", []Option{Churn(ChurnSpec{Rate: 0.2})}},
		{"churn-set", []Option{Churn(ChurnSpec{CrashAt: map[int]int{1: 40, 5: 200}})}},
		{"jam-reactive", []Option{Jamming(1, JamReactive)}},
		{"jam-adaptive", []Option{Jamming(1, JamAdaptive)}},
		{"byz-corrupt", []Option{Byzantine(0.2, ByzCorrupt)}},
		{"byz-equivocate", []Option{Byzantine(0.2, ByzEquivocate)}},
		{"byz-silent", []Option{Byzantine(0.2, ByzSilent)}},
		{"combined", []Option{Loss(0.1), Jamming(1, JamRoundRobin), Churn(ChurnSpec{Rate: 0.1})}},
		{"combined-byz", []Option{Loss(0.05), Jamming(1, JamReactive), Byzantine(0.15, ByzEquivocate)}},
	}
	for _, m := range models {
		r1, log1 := faultRun(t, n, values, m.opts...)
		r2, log2 := faultRun(t, n, values, m.opts...)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results diverged across identical runs", m.name)
		}
		if !reflect.DeepEqual(log1, log2) {
			t.Errorf("%s: event logs diverged: %d vs %d events", m.name, len(log1), len(log2))
		}
		if r1.Faults == nil {
			t.Errorf("%s: no FaultReport", m.name)
		}
	}
}

// TestLossReportsActivity: a lossy run loses messages and says so, and the
// pipeline still aggregates (the ACK handshake retries).
func TestLossReportsActivity(t *testing.T) {
	const n = 48
	res, _ := faultRun(t, n, seqValues(n), Loss(0.15))
	fr := res.Faults
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if fr.Lost == 0 {
		t.Error("15% loss lost nothing over a full pipeline run")
	}
	if fr.Delivered == 0 {
		t.Error("nothing delivered under 15% loss")
	}
	if res.Informed < n/2 {
		t.Errorf("only %d/%d informed under 15%% loss; expected graceful degradation", res.Informed, n)
	}
}

// TestChurnCrashReporting: explicit crash sets surface in the report, the
// survivor counts exclude them, and crashed nodes never report informed.
func TestChurnCrashReporting(t *testing.T) {
	const n = 40
	crash := map[int]int{2: 30, 7: 100, 11: 0}
	res, _ := faultRun(t, n, seqValues(n), Churn(ChurnSpec{CrashAt: crash}))
	fr := res.Faults
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if !reflect.DeepEqual(fr.CrashedNodes, []int{2, 7, 11}) {
		t.Errorf("CrashedNodes = %v, want [2 7 11]", fr.CrashedNodes)
	}
	if fr.Survivors != n-3 {
		t.Errorf("Survivors = %d, want %d", fr.Survivors, n-3)
	}
	for _, id := range fr.CrashedNodes {
		if res.Nodes[id].Informed {
			t.Errorf("crashed node %d reported informed", id)
		}
	}
	if fr.SurvivorsInformed == 0 {
		t.Errorf("survivors learned nothing: %+v", fr)
	}
	// All three crashes land before the dead nodes contribute, so the
	// full-input fold is unreachable — survivors instead agree on the fold
	// of the values that made it in.
	if fr.SurvivorsAgreeing < fr.SurvivorsInformed*9/10 {
		t.Errorf("survivors did not converge: %+v", fr)
	}
	if fr.SurvivorsInformed > fr.Survivors || fr.SurvivorsExact > fr.SurvivorsInformed ||
		fr.SurvivorsAgreeing > fr.SurvivorsInformed {
		t.Errorf("inconsistent survivor counts: %+v", fr)
	}
}

// TestJammingDegradesChannels: jamming k of F channels jams slot-channels
// and the pipeline still completes via the remaining channels.
func TestJammingDegradesChannels(t *testing.T) {
	const n = 40
	res, _ := faultRun(t, n, seqValues(n), Jamming(1, JamRoundRobin))
	fr := res.Faults
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if fr.JammedSlotChannels != res.Slots {
		t.Errorf("JammedSlotChannels = %d, want %d (k=1 per slot)", fr.JammedSlotChannels, res.Slots)
	}
	if res.Informed < n/2 {
		t.Errorf("only %d/%d informed with 1 of 4 channels jammed", res.Informed, n)
	}
}

// TestByzantineReporting: the seeded membership surfaces in the report, the
// strategies leave their distinct fingerprints (corrupted vs dropped
// transmissions), and the survivor counts exclude the liars.
func TestByzantineReporting(t *testing.T) {
	const n = 40
	res, _ := faultRun(t, n, seqValues(n), Byzantine(0.25, ByzCorrupt))
	fr := res.Faults
	if fr == nil {
		t.Fatal("no FaultReport")
	}
	if len(fr.ByzantineNodes) != 10 {
		t.Fatalf("ByzantineNodes = %v, want 10 of %d nodes", fr.ByzantineNodes, n)
	}
	last := -1
	for _, id := range fr.ByzantineNodes {
		if id <= last || id >= n {
			t.Fatalf("membership not ascending in range: %v", fr.ByzantineNodes)
		}
		last = id
	}
	if fr.Corrupted == 0 || fr.Dropped != 0 {
		t.Errorf("corrupt strategy: corrupted %d, dropped %d; want >0, 0", fr.Corrupted, fr.Dropped)
	}
	if fr.Survivors != n-len(fr.ByzantineNodes) {
		t.Errorf("Survivors = %d, want %d (liars excluded)", fr.Survivors, n-len(fr.ByzantineNodes))
	}
	if fr.SurvivorsExact != 0 {
		t.Errorf("SurvivorsExact = %d under 10 consistent liars, want 0", fr.SurvivorsExact)
	}

	silent, _ := faultRun(t, n, seqValues(n), Byzantine(0.1, ByzSilent))
	sr := silent.Faults
	if sr == nil {
		t.Fatal("no FaultReport")
	}
	if len(sr.ByzantineNodes) != 4 {
		t.Errorf("Byzantine(0.1) of %d nodes chose %v, want 4", n, sr.ByzantineNodes)
	}
	if sr.Dropped == 0 || sr.Corrupted != 0 {
		t.Errorf("silent strategy: corrupted %d, dropped %d; want 0, >0", sr.Corrupted, sr.Dropped)
	}
}

// TestFaultRuleEveryEntryPoint: each bad fault value is rejected by every
// entry point that takes it — New options, RunBatch through a RunSpec,
// ParseScenarioSpec and RunExperiment — since all of them defer to the one
// rule set in internal/fault. JSON has no NaN, so the NaN values have no
// spec document.
func TestFaultRuleEveryEntryPoint(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		opt  Option
		rs   RunSpec
		doc  string
		exp  ExperimentOptions
	}{
		{"loss 1.5", Loss(1.5), RunSpec{Loss: 1.5}, `{"n": 16, "loss": [0, 1.5]}`, ExperimentOptions{}},
		{"loss NaN", Loss(nan), RunSpec{Loss: nan}, "", ExperimentOptions{}},
		{"jam = F", Jamming(4, JamOblivious), RunSpec{Jam: 4}, `{"n": 16, "jam": [4]}`, ExperimentOptions{}},
		{"churn -0.1", Churn(ChurnSpec{Rate: -0.1}), RunSpec{Churn: ChurnSpec{Rate: -0.1}}, `{"n": 16, "churn": [-0.1]}`, ExperimentOptions{}},
		{"byz NaN", Byzantine(nan, ByzCorrupt), RunSpec{Byz: nan}, "", ExperimentOptions{Byz: []float64{0, nan}}},
		{"jam model", Jamming(1, JamModel(9)), RunSpec{Jam: 1, JamModel: JamModel(9)}, `{"n": 16, "jam_model": "psychic"}`, ExperimentOptions{JamModels: []string{"psychic"}}},
		{"byz strategy", Byzantine(0.1, ByzStrategy(7)), RunSpec{Byz: 0.1, ByzStrategy: ByzStrategy(7)}, `{"n": 16, "byz_strategy": "gossip"}`, ExperimentOptions{}},
	}
	for _, tc := range cases {
		if _, err := New(16, tc.opt); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
		if _, err := RunBatch(context.Background(), 16, nil, []RunSpec{tc.rs}, BatchOptions{}); err == nil {
			t.Errorf("%s: RunBatch accepted it", tc.name)
		}
		if tc.doc != "" {
			if _, err := ParseScenarioSpec([]byte(tc.doc)); err == nil {
				t.Errorf("%s: ParseScenarioSpec accepted it", tc.name)
			}
		}
		if tc.exp.Byz != nil || tc.exp.JamModels != nil {
			tc.exp.Quick, tc.exp.Seeds = true, 1
			// The error names the option, and comes before any run.
			if _, err := RunExperiment("f4", tc.exp); err == nil || !strings.Contains(err.Error(), "ExperimentOptions.") {
				t.Errorf("%s: RunExperiment err = %v, want an error naming the option", tc.name, err)
			}
		}
	}
}

// TestFaultNamesRoundTrip: the name lists follow declaration order (both
// CLIs print them in their usage text), and every value's name parses back
// to it through ParseByzStrategy and the spec's case-insensitive lookup.
func TestFaultNamesRoundTrip(t *testing.T) {
	models := []JamModel{JamOblivious, JamRoundRobin, JamReactive, JamAdaptive}
	if names := JamModelNames(); len(names) != len(models) {
		t.Fatalf("JamModelNames() = %v, want %d names", names, len(models))
	}
	for i, m := range models {
		if name := JamModelNames()[i]; name != m.String() {
			t.Errorf("JamModelNames()[%d] = %q, want %q", i, name, m)
		}
		sw, err := ScenarioSpec{N: 16, JamModel: strings.ToUpper(m.String())}.resolve()
		if err != nil || sw.jamModel != m {
			t.Errorf("spec jam_model %q resolved to %v (err %v), want %v", strings.ToUpper(m.String()), sw, err, m)
		}
	}
	strategies := []ByzStrategy{ByzCorrupt, ByzEquivocate, ByzSilent}
	if names := ByzStrategyNames(); len(names) != len(strategies) {
		t.Fatalf("ByzStrategyNames() = %v, want %d names", names, len(strategies))
	}
	for i, st := range strategies {
		if name := ByzStrategyNames()[i]; name != st.String() {
			t.Errorf("ByzStrategyNames()[%d] = %q, want %q", i, name, st)
		}
		if got, err := ParseByzStrategy(st.String()); err != nil || got != st {
			t.Errorf("ParseByzStrategy(%q) = %v, %v; want %v", st.String(), got, err, st)
		}
		sw, err := ScenarioSpec{N: 16, ByzStrategy: strings.ToUpper(st.String())}.resolve()
		if err != nil || sw.byzStrategy != st {
			t.Errorf("spec byz_strategy %q resolved to %v (err %v), want %v", strings.ToUpper(st.String()), sw, err, st)
		}
	}
	if got, err := ParseByzStrategy(""); err != nil || got != ByzCorrupt {
		t.Errorf(`ParseByzStrategy("") = %v, %v; want corrupt`, got, err)
	}
}

// TestRunScenario: the runner sweeps the full grid deterministically — two
// consecutive runs emit identical CSV — and honors cancellation.
func TestRunScenario(t *testing.T) {
	sp := ScenarioSpec{
		Name:     "test",
		N:        32,
		Channels: 4,
		Loss:     []float64{0, 0.1},
		Jam:      []int{0, 1},
		Churn:    []float64{0, 0.1},
		Seeds:    2,
	}
	t1, err := RunScenario(context.Background(), sp, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunScenario(context.Background(), sp, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if t1.CSV() != t2.CSV() {
		t.Errorf("scenario CSV not stable across runs:\n%s\n---\n%s", t1.CSV(), t2.CSV())
	}
	lines := len(splitLines(t1.CSV()))
	// 1 title + 1 header + 2*2*2 grid rows.
	if want := 2 + 8; lines != want {
		t.Errorf("CSV has %d lines, want %d:\n%s", lines, want, t1.CSV())
	}

	if _, err := RunScenario(context.Background(), ScenarioSpec{N: 1}, BatchOptions{}); err == nil {
		t.Error("n = 1 accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScenario(ctx, sp, BatchOptions{}); err == nil {
		t.Error("cancelled context not honored")
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
