package fault

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/rng"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{LossProb: 0.5},
		{LossProb: 1},
		{JamChannels: 3, JamModel: JamRoundRobin},
		{CrashRate: 0.2, CrashFrom: 10, CrashUntil: 20},
		{CrashAt: map[int]int{0: 0, 7: 100}},
	}
	for i, s := range good {
		if err := s.Validate(8, 4); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{LossProb: -0.1},
		{LossProb: 1.5},
		{JamChannels: -1},
		{JamChannels: 4}, // jams every channel
		{JamChannels: 1, JamModel: JamModel(9)},
		{CrashRate: 2},
		{CrashRate: 0.1, CrashFrom: -1},
		{CrashRate: 0.1, CrashFrom: 5, CrashUntil: 5},
		{CrashAt: map[int]int{8: 0}},  // node out of range
		{CrashAt: map[int]int{0: -3}}, // negative slot
	}
	for i, s := range bad {
		if err := s.Validate(8, 4); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestSpecZero(t *testing.T) {
	if !(Spec{}).Zero() {
		t.Error("zero value not Zero")
	}
	if !(Spec{JamModel: JamRoundRobin, CrashUntil: 50}).Zero() {
		t.Error("model/window without intensity should still be Zero")
	}
	for _, s := range []Spec{
		{LossProb: 0.01},
		{JamChannels: 1},
		{CrashRate: 0.1},
		{CrashAt: map[int]int{0: 1}},
	} {
		if s.Zero() {
			t.Errorf("spec %+v reported Zero", s)
		}
	}
}

// TestLossDeterminism: the loss decision is a pure function of (seed, slot,
// node) — two injectors with equal seeds agree everywhere, a different seed
// disagrees somewhere, and the empirical rate is near the target.
func TestLossDeterminism(t *testing.T) {
	spec := Spec{LossProb: 0.3}
	a := NewInjector(spec, 42, 4, 2, 1000)
	b := NewInjector(spec, 42, 4, 2, 1000)
	c := NewInjector(spec, 43, 4, 2, 1000)
	rec := phy.Reception{Decoded: true, From: 1, SignalPower: 2}
	lost, diverged := 0, false
	const trials = 4000
	for slot := 0; slot < trials; slot++ {
		ra := a.FilterReception(slot, slot%4, 0, rec)
		rb := b.FilterReception(slot, slot%4, 0, rec)
		rc := c.FilterReception(slot, slot%4, 0, rec)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("slot %d: same seed diverged", slot)
		}
		if ra.Decoded != rc.Decoded {
			diverged = true
		}
		if !ra.Decoded {
			lost++
			if ra.From != -1 || ra.Msg != nil || ra.SignalPower != 0 {
				t.Fatalf("lost reception not fully degraded: %+v", ra)
			}
			if ra.Interference != rec.Interference+rec.SignalPower {
				t.Fatalf("lost signal power not folded into interference: %+v", ra)
			}
		}
	}
	if !diverged {
		t.Error("different seeds never diverged")
	}
	if rate := float64(lost) / trials; rate < 0.25 || rate > 0.35 {
		t.Errorf("empirical loss rate %.3f, want ≈ 0.30", rate)
	}
	rep := a.Report()
	if rep.Lost != lost || rep.Delivered != trials-lost {
		t.Errorf("report lost/delivered = %d/%d, want %d/%d", rep.Lost, rep.Delivered, lost, trials-lost)
	}
}

// TestLossZeroIsIdentity: LossProb 0 never touches a reception and counts
// everything as delivered.
func TestLossZeroIsIdentity(t *testing.T) {
	in := NewInjector(Spec{}, 1, 2, 2, 100)
	rec := phy.Reception{Decoded: true, From: 0, Msg: "m", SignalPower: 3, Interference: 1}
	if got := in.FilterReception(7, 1, 0, rec); !reflect.DeepEqual(got, rec) {
		t.Errorf("zero spec altered reception: %+v", got)
	}
	undec := phy.Reception{From: -1, Interference: 2}
	if got := in.FilterReception(8, 0, 0, undec); !reflect.DeepEqual(got, undec) {
		t.Errorf("undecoded reception altered: %+v", got)
	}
	if rep := in.Report(); rep.Delivered != 1 || rep.Lost != 0 {
		t.Errorf("report = %+v, want 1 delivered, 0 lost", rep)
	}
}

func testField(channels int) *phy.Field {
	p := model.Default(channels, 8)
	pos := []geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}
	return phy.NewField(p, pos)
}

// jamSet resolves one listener per channel against a nearby transmitter and
// reports which channels failed to decode (i.e. are jammed).
func jammedChannels(f *phy.Field, channels int) map[int]bool {
	out := map[int]bool{}
	for c := 0; c < channels; c++ {
		txs := []phy.Tx{{Node: 0, Channel: c, Msg: c}}
		rxs := []phy.Rx{{Node: 1, Channel: c}}
		recs := f.Resolve(txs, rxs)
		if !recs[0].Decoded {
			out[c] = true
		}
	}
	return out
}

// TestJamRoundRobin: the deterministic adversary jams exactly k channels per
// slot and sweeps every channel across a cycle.
func TestJamRoundRobin(t *testing.T) {
	const channels, k = 4, 2
	f := testField(channels)
	in := NewInjector(Spec{JamChannels: k, JamModel: JamRoundRobin}, 5, 2, channels, 100)
	covered := map[int]bool{}
	for slot := 0; slot < 8; slot++ {
		in.BeginSlot(slot, f)
		jam := jammedChannels(f, channels)
		if len(jam) != k {
			t.Fatalf("slot %d: %d channels jammed, want %d", slot, len(jam), k)
		}
		for c := range jam {
			covered[c] = true
		}
	}
	if len(covered) != channels {
		t.Errorf("round-robin covered %d/%d channels over 8 slots", len(covered), channels)
	}
	if rep := in.Report(); rep.JammedSlotChannels != 8*k || rep.Slots != 8 {
		t.Errorf("report = %+v, want %d jammed slot-channels over 8 slots", rep, 8*k)
	}
}

// TestJamObliviousDeterminism: same seed → same jam sets; the per-slot sets
// vary and always have size k.
func TestJamObliviousDeterminism(t *testing.T) {
	const channels, k = 5, 2
	fa, fb := testField(channels), testField(channels)
	a := NewInjector(Spec{JamChannels: k, JamModel: JamOblivious}, 9, 2, channels, 100)
	b := NewInjector(Spec{JamChannels: k, JamModel: JamOblivious}, 9, 2, channels, 100)
	distinct := map[string]bool{}
	for slot := 0; slot < 32; slot++ {
		a.BeginSlot(slot, fa)
		b.BeginSlot(slot, fb)
		ja, jb := jammedChannels(fa, channels), jammedChannels(fb, channels)
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("slot %d: same seed jammed %v vs %v", slot, ja, jb)
		}
		if len(ja) != k {
			t.Fatalf("slot %d: %d channels jammed, want %d", slot, len(ja), k)
		}
		key := ""
		for c := 0; c < channels; c++ {
			if ja[c] {
				key += string(rune('0' + c))
			}
		}
		distinct[key] = true
	}
	if len(distinct) < 3 {
		t.Errorf("oblivious adversary produced only %d distinct jam sets over 32 slots", len(distinct))
	}
}

// TestJamClearedBetweenSlots: the previous slot's jam set is lifted before
// the next slot's is applied — the field does not accumulate jammed channels.
func TestJamClearedBetweenSlots(t *testing.T) {
	const channels = 4
	f := testField(channels)
	in := NewInjector(Spec{JamChannels: 1, JamModel: JamRoundRobin}, 5, 2, channels, 100)
	for slot := 0; slot < channels; slot++ {
		in.BeginSlot(slot, f)
		if jam := jammedChannels(f, channels); len(jam) != 1 {
			t.Fatalf("slot %d: %d channels jammed, want 1 (stale jam not cleared)", slot, len(jam))
		}
	}
}

// TestChurnResolution: explicit crash sets win over the rate process, the
// rate process is deterministic in the seed, and crash slots land in the
// window.
func TestChurnResolution(t *testing.T) {
	const n, horizon = 200, 500
	spec := Spec{
		CrashAt:    map[int]int{3: 7, 5: 0},
		CrashRate:  0.3,
		CrashFrom:  100,
		CrashUntil: 200,
	}
	a := NewInjector(spec, 11, n, 4, horizon)
	b := NewInjector(spec, 11, n, 4, horizon)
	if a.CrashSlot(3) != 7 || a.CrashSlot(5) != 0 {
		t.Errorf("explicit crash slots = %d, %d, want 7, 0", a.CrashSlot(3), a.CrashSlot(5))
	}
	crashed := 0
	for i := 0; i < n; i++ {
		if a.CrashSlot(i) != b.CrashSlot(i) {
			t.Fatalf("node %d: same seed resolved different crash slots", i)
		}
		if i == 3 || i == 5 {
			continue
		}
		if at := a.CrashSlot(i); at != neverCrashes {
			crashed++
			if at < 100 || at >= 200 {
				t.Errorf("node %d crash slot %d outside window [100, 200)", i, at)
			}
		}
	}
	if crashed < n/5 || crashed > n*2/5 {
		t.Errorf("%d/%d rate-crashes, want ≈ 30%%", crashed, n)
	}
	if a.CrashSlot(-1) != neverCrashes || a.CrashSlot(n) != neverCrashes {
		t.Error("out-of-range ids must never crash")
	}
}

// TestChurnHorizonDefault: CrashUntil = 0 falls back to the run horizon.
func TestChurnHorizonDefault(t *testing.T) {
	const n, horizon = 300, 64
	in := NewInjector(Spec{CrashRate: 1}, 2, n, 4, horizon)
	for i := 0; i < n; i++ {
		if at := in.CrashSlot(i); at < 0 || at >= horizon {
			t.Fatalf("node %d crash slot %d outside [0, %d)", i, at, horizon)
		}
	}
}

// TestReportCrashedNodes: only crashes at or before the last observed slot
// are reported, sorted ascending.
func TestReportCrashedNodes(t *testing.T) {
	f := testField(2)
	in := NewInjector(Spec{CrashAt: map[int]int{1: 3, 0: 50}}, 1, 2, 2, 100)
	for slot := 0; slot < 10; slot++ {
		in.BeginSlot(slot, f)
	}
	rep := in.Report()
	if !reflect.DeepEqual(rep.CrashedNodes, []int{1}) {
		t.Errorf("CrashedNodes = %v, want [1] (node 0 crashes after the run)", rep.CrashedNodes)
	}
	if !rep.Crashed(1) || rep.Crashed(0) {
		t.Errorf("Crashed lookups wrong: %+v", rep)
	}
}

// payloadMsg is a minimal value-bearing message for corruption tests,
// implementing Payload exactly like the protocol messages do: by value.
type payloadMsg struct{ V int64 }

func (m payloadMsg) PayloadValue() int64          { return m.V }
func (m payloadMsg) WithPayloadValue(v int64) any { m.V = v; return m }

// TestByzValidate: the ByzSpec checks ride on Spec.Validate.
func TestByzValidate(t *testing.T) {
	good := []Spec{
		{Byz: ByzSpec{Fraction: 0.5}},
		{Byz: ByzSpec{Fraction: 1, Strategy: ByzEquivocate}},
		{Byz: ByzSpec{Fraction: 0.25, Strategy: ByzSilent}},
	}
	for i, s := range good {
		if err := s.Validate(8, 4); err != nil {
			t.Errorf("good byz spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Byz: ByzSpec{Fraction: -0.1}},
		{Byz: ByzSpec{Fraction: 1.5}},
		{Byz: ByzSpec{Fraction: 0.1, Strategy: ByzStrategy(9)}},
	}
	for i, s := range bad {
		if err := s.Validate(8, 4); err == nil {
			t.Errorf("bad byz spec %d accepted: %+v", i, s)
		}
	}
	if !(Spec{Byz: ByzSpec{Strategy: ByzSilent}}).Zero() {
		t.Error("strategy without a population should still be Zero")
	}
	if (Spec{Byz: ByzSpec{Fraction: 0.1}}).Zero() {
		t.Error("a Byzantine population reported Zero")
	}
}

// TestByzantineSelection: membership is an exact seeded k-subset — stable
// across injectors, the right size, ascending, and seed-sensitive.
func TestByzantineSelection(t *testing.T) {
	const n = 100
	spec := Spec{Byz: ByzSpec{Fraction: 0.25}}
	a := NewInjector(spec, 7, n, 4, 100)
	b := NewInjector(spec, 7, n, 4, 100)
	c := NewInjector(spec, 8, n, 4, 100)
	ra, rb, rc := a.Report(), b.Report(), c.Report()
	if len(ra.ByzantineNodes) != 25 {
		t.Fatalf("fraction 0.25 of %d chose %d nodes, want 25", n, len(ra.ByzantineNodes))
	}
	if !reflect.DeepEqual(ra.ByzantineNodes, rb.ByzantineNodes) {
		t.Error("same seed chose different Byzantine sets")
	}
	if reflect.DeepEqual(ra.ByzantineNodes, rc.ByzantineNodes) {
		t.Error("different seeds chose identical Byzantine sets")
	}
	last := -1
	for _, id := range ra.ByzantineNodes {
		if id <= last || id >= n {
			t.Fatalf("membership not ascending in range: %v", ra.ByzantineNodes)
		}
		last = id
		if !ra.Byzantine(id) {
			t.Fatalf("Byzantine(%d) = false for a member", id)
		}
	}
	if ra.Byzantine(-1) || ra.Byzantine(n) {
		t.Error("out-of-range ids reported Byzantine")
	}
	// The population is round(fraction·n).
	if rep := NewInjector(Spec{Byz: ByzSpec{Fraction: 0.034}}, 7, n, 4, 100).Report(); len(rep.ByzantineNodes) != 3 {
		t.Errorf("fraction 0.034 of %d chose %d nodes, want 3", n, len(rep.ByzantineNodes))
	}
}

// TestByzantineStrategies: corrupt lies consistently, equivocate lies per
// (slot, channel), silent drops — and honest traffic always passes through
// untouched.
func TestByzantineStrategies(t *testing.T) {
	const n = 8
	pick := func(in *Injector) (byz, honest int) {
		rep := in.Report()
		byz = rep.ByzantineNodes[0]
		for i := 0; i < n; i++ {
			if !rep.Byzantine(i) {
				return byz, i
			}
		}
		t.Fatal("no honest node")
		return 0, 0
	}
	msg := payloadMsg{V: 41}

	corrupt := NewInjector(Spec{Byz: ByzSpec{Fraction: 0.25, Strategy: ByzCorrupt}}, 3, n, 4, 100)
	byz, honest := pick(corrupt)
	out1, ok1 := corrupt.FilterTransmission(5, phy.Tx{Node: byz, Channel: 0, Msg: msg})
	out2, ok2 := corrupt.FilterTransmission(9, phy.Tx{Node: byz, Channel: 2, Msg: msg})
	if !ok1 || !ok2 {
		t.Fatal("corrupt strategy dropped a transmission")
	}
	lie1 := out1.Msg.(payloadMsg).V
	lie2 := out2.Msg.(payloadMsg).V
	if lie1 == msg.V {
		t.Error("corrupt strategy kept the honest value")
	}
	if lie1 != lie2 {
		t.Errorf("consistent liar told different lies: %d vs %d", lie1, lie2)
	}
	if h, ok := corrupt.FilterTransmission(5, phy.Tx{Node: honest, Channel: 0, Msg: msg}); !ok || h.Msg.(payloadMsg).V != msg.V {
		t.Error("honest transmission was touched")
	}
	if ctrl, ok := corrupt.FilterTransmission(5, phy.Tx{Node: byz, Channel: 0, Msg: "hello"}); !ok || ctrl.Msg != "hello" {
		t.Error("payload-free control traffic was touched")
	}
	if rep := corrupt.Report(); rep.Corrupted != 2 || rep.Dropped != 0 {
		t.Errorf("corrupt report = %+v, want 2 corrupted, 0 dropped", rep)
	}

	equiv := NewInjector(Spec{Byz: ByzSpec{Fraction: 0.25, Strategy: ByzEquivocate}}, 3, n, 4, 100)
	byz, _ = pick(equiv)
	e1, _ := equiv.FilterTransmission(5, phy.Tx{Node: byz, Channel: 0, Msg: msg})
	e2, _ := equiv.FilterTransmission(5, phy.Tx{Node: byz, Channel: 1, Msg: msg})
	e3, _ := equiv.FilterTransmission(6, phy.Tx{Node: byz, Channel: 0, Msg: msg})
	e1again, _ := equiv.FilterTransmission(5, phy.Tx{Node: byz, Channel: 0, Msg: msg})
	v1, v2, v3 := e1.Msg.(payloadMsg).V, e2.Msg.(payloadMsg).V, e3.Msg.(payloadMsg).V
	if v1 == v2 && v1 == v3 {
		t.Errorf("equivocator told one story everywhere: %d", v1)
	}
	if v1 != e1again.Msg.(payloadMsg).V {
		t.Error("equivocation not deterministic per (slot, channel)")
	}

	silent := NewInjector(Spec{Byz: ByzSpec{Fraction: 0.25, Strategy: ByzSilent}}, 3, n, 4, 100)
	byz, honest = pick(silent)
	if _, ok := silent.FilterTransmission(5, phy.Tx{Node: byz, Channel: 0, Msg: msg}); ok {
		t.Error("silent traitor's transmission was not dropped")
	}
	if _, ok := silent.FilterTransmission(5, phy.Tx{Node: honest, Channel: 0, Msg: msg}); !ok {
		t.Error("honest transmission dropped")
	}
	if rep := silent.Report(); rep.Dropped != 1 || rep.Corrupted != 0 {
		t.Errorf("silent report = %+v, want 1 dropped, 0 corrupted", rep)
	}

	// The zero-valued ByzSpec takes the nil fast path: nothing is touched.
	none := NewInjector(Spec{}, 3, n, 4, 100)
	if out, ok := none.FilterTransmission(5, phy.Tx{Node: 0, Channel: 0, Msg: msg}); !ok || out.Msg.(payloadMsg).V != msg.V {
		t.Error("zero spec altered a transmission")
	}
}

// TestJamReactive: the reactive adversary jams the channels that carried
// last slot's delivered decodes (ties to the lower index), and falls back to
// the low channels with no history.
func TestJamReactive(t *testing.T) {
	const channels, k = 4, 1
	f := testField(channels)
	in := NewInjector(Spec{JamChannels: k, JamModel: JamReactive}, 5, 2, channels, 100)
	in.BeginSlot(0, f)
	if jam := jammedChannels(f, channels); !jam[0] || len(jam) != 1 {
		t.Fatalf("first slot jammed %v, want {0} (no history)", jam)
	}
	// Deliver two decodes on channel 2, one on channel 3, during slot 0.
	rec := phy.Reception{Decoded: true, From: 0, SignalPower: 1}
	in.FilterReception(0, 1, 2, rec)
	in.FilterReception(0, 1, 2, rec)
	in.FilterReception(0, 1, 3, rec)
	in.BeginSlot(1, f)
	if jam := jammedChannels(f, channels); !jam[2] || len(jam) != 1 {
		t.Fatalf("slot 1 jammed %v, want {2} (busiest channel last slot)", jam)
	}
	// No deliveries during slot 1: history was reset, back to channel 0.
	in.BeginSlot(2, f)
	if jam := jammedChannels(f, channels); !jam[0] || len(jam) != 1 {
		t.Fatalf("slot 2 jammed %v, want {0} (observations reset each slot)", jam)
	}
}

// TestJamAdaptiveDeterminism: the bandit is a pure function of (seed, spec,
// observation stream) — twin injectors fed identical streams agree on every
// jam set, and each set has exactly k channels.
func TestJamAdaptiveDeterminism(t *testing.T) {
	const channels, k = 5, 2
	fa, fb := testField(channels), testField(channels)
	a := NewInjector(Spec{JamChannels: k, JamModel: JamAdaptive}, 13, 2, channels, 100)
	b := NewInjector(Spec{JamChannels: k, JamModel: JamAdaptive}, 13, 2, channels, 100)
	rec := phy.Reception{Decoded: true, From: 0, SignalPower: 1}
	distinct := map[string]bool{}
	for slot := 0; slot < 64; slot++ {
		a.BeginSlot(slot, fa)
		b.BeginSlot(slot, fb)
		ja, jb := jammedChannels(fa, channels), jammedChannels(fb, channels)
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("slot %d: same seed and stream jammed %v vs %v", slot, ja, jb)
		}
		if len(ja) != k {
			t.Fatalf("slot %d: %d channels jammed, want %d", slot, len(ja), k)
		}
		key := ""
		for c := 0; c < channels; c++ {
			if ja[c] {
				key += string(rune('0' + c))
			}
		}
		distinct[key] = true
		// Both observe the same traffic: channel slot%channels is busy.
		a.FilterReception(slot, 1, slot%channels, rec)
		b.FilterReception(slot, 1, slot%channels, rec)
	}
	if len(distinct) < 2 {
		t.Error("adaptive adversary never moved off one jam set over 64 slots")
	}
}

// TestBeginSlotAllocFree: after construction the jammer allocates nothing
// per slot, whichever model picks its channels.
func TestBeginSlotAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	const channels, k = 8, 3
	rec := phy.Reception{Decoded: true, From: 0, SignalPower: 1}
	for m := JamOblivious; m.valid(); m++ {
		f := testField(channels)
		in := NewInjector(Spec{JamChannels: k, JamModel: m}, 17, 2, channels, 100)
		slot := 0
		allocs := testing.AllocsPerRun(100, func() {
			in.BeginSlot(slot, f)
			in.FilterReception(slot, 1, slot%channels, rec)
			slot++
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per slot, want 0", m, allocs)
		}
	}
}

// TestJamStreamMatchesFreshRNG: the jammer's reseeded generator draws the
// same channels, in the same order, as a fresh rng.New(rng.Mix(jamSeed,
// slot)) per slot. Without observations the adaptive bandit exploits
// channels 0..k-1, so its set is fixed by the same per-slot stream.
func TestJamStreamMatchesFreshRNG(t *testing.T) {
	const channels, k, slots = 7, 3, 10000
	subset := func(r *rand.Rand) []int {
		perm := make([]int, channels)
		for i := range perm {
			perm[i] = i
		}
		var out []int
		for j := 0; j < k; j++ {
			swap := j + r.Intn(channels-j)
			perm[j], perm[swap] = perm[swap], perm[j]
			out = append(out, perm[j])
		}
		return out
	}
	for _, m := range []JamModel{JamOblivious, JamAdaptive} {
		f := testField(channels)
		in := NewInjector(Spec{JamChannels: k, JamModel: m}, 23, 2, channels, slots)
		for slot := 0; slot < slots; slot++ {
			in.BeginSlot(slot, f)
			r := rng.New(rng.Mix(in.jamSeed, uint64(slot)))
			want := []int{0, 1, 2} // the exploited channels 0..k-1
			if m == JamOblivious || r.Float64() < adaptiveExplore {
				want = subset(r)
			}
			if !slices.Equal(in.jammed, want) {
				t.Fatalf("%v slot %d: jammed %v, fresh stream draws %v", m, slot, in.jammed, want)
			}
		}
	}
}

// TestTallySurvivorsExcludesByzantine: the tally counts honest nodes only —
// a liar agreeing with its own lie is not a success.
func TestTallySurvivorsExcludesByzantine(t *testing.T) {
	rep := Report{ByzantineNodes: []int{1, 4}, CrashedNodes: []int{2}}
	// Nodes 0,3,5 are honest survivors: 0 and 3 learned 10 (the want), 5
	// learned 11; the liars "learned" 99.
	values := map[int]int64{0: 10, 1: 99, 3: 10, 4: 99, 5: 11}
	tally := rep.TallySurvivors(6, func(i int) (bool, int64) {
		v, ok := values[i]
		return ok, v
	}, 10)
	if tally.Survivors != 3 {
		t.Errorf("Survivors = %d, want 3 (6 nodes - 2 byzantine - 1 crashed)", tally.Survivors)
	}
	if tally.Informed != 3 || tally.Exact != 2 || tally.Agreeing != 2 {
		t.Errorf("tally = %+v, want informed 3, exact 2, agreeing 2", tally)
	}
}
