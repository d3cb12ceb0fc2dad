package mcnet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// stormSpecGolden is the fully populated spec document of
// TestScenarioSpecGoldenRoundTrip.
const stormSpecGolden = `{"name":"storm","n":64,"topology":"uniform","topology_param":10,` +
	`"channels":6,"loss":[0,0.1],"jam":[0,2],"churn":[0.05],` +
	`"jam_model":"roundrobin","seeds":3,"base_seed":7,"op":"max"}`

// TestScenarioSpecGoldenRoundTrip: the document form is stable — a fully
// populated spec marshals to exactly the golden JSON, and the golden JSON
// parses back to the same spec.
func TestScenarioSpecGoldenRoundTrip(t *testing.T) {
	sp := ScenarioSpec{
		Name:          "storm",
		N:             64,
		Topology:      "uniform",
		TopologyParam: 10,
		Channels:      6,
		Loss:          []float64{0, 0.1},
		Jam:           []int{0, 2},
		Churn:         []float64{0.05},
		JamModel:      "roundrobin",
		Seeds:         3,
		BaseSeed:      7,
		Op:            "max",
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != stormSpecGolden {
		t.Fatalf("marshal drifted from golden document:\n got %s\nwant %s", data, stormSpecGolden)
	}
	back, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	round, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != stormSpecGolden {
		t.Fatalf("round trip drifted:\n got %s\nwant %s", round, stormSpecGolden)
	}
}

// TestScenarioSpecDefaults: the minimal document is runnable and fills
// the option defaults (crowd topology, 4 channels, sum, oblivious, corrupt).
func TestScenarioSpecDefaults(t *testing.T) {
	sp, err := ParseScenarioSpec([]byte(`{"n": 16}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sw.n != 16 || sw.op.Name() != "sum" || sw.jamModel != JamOblivious || sw.byzStrategy != ByzCorrupt {
		t.Fatalf("defaults not applied: %+v", sw)
	}
	if sw.Len() != 1 {
		t.Fatalf("minimal spec expands to %d items, want 1", sw.Len())
	}
}

// specFieldErrorCases are documents that each break one field, with the
// text the parse error must contain.
var specFieldErrorCases = []struct {
	doc  string
	want string
}{
	{`{"n": 1}`, `"n"`},
	{`{"n": 16, "loss": [0, 1.5]}`, `"loss[1]"`},
	{`{"n": 16, "jam": [-1]}`, `"jam[0]"`},
	{`{"n": 16, "channels": 2, "jam": [0, 2]}`, `"jam[1]"`},
	{`{"n": 16, "churn": [2]}`, `"churn[0]"`},
	{`{"n": 16, "jam_model": "psychic"}`, `"jam_model"`},
	{`{"n": 16, "op": "median"}`, `"op"`},
	{`{"n": 16, "topology": "torus"}`, `"topology"`},
	{`{"n": 16, "topology": "grid", "topology_param": 3}`, `"topology_param"`},
	{`{"n": 16, "topology": "line", "topology_param": 1.5}`, `"topology_param"`},
	{`{"n": 16, "seeds": -1}`, `"seeds"`},
	{`{"n": 65537}`, `"n"`},
	{`{"n": 16, "channels": -1}`, `"channels"`},
	{`{"n": 16, "channels": 1025}`, `"channels"`},
	{`{"n": 16, "channels": 1099511627776}`, `"channels"`},
	{`{"n": 16, "seeds": 65537}`, `"seeds"`},
	{`{"n": 16, "loss": [0, 0.1], "seeds": 32769}`, `"seeds"`},
	{`{"n": 16, "colorer": "dplus1"}`, `"colorer"`},
	{`{"n": 16, "bogus": true}`, `bogus`},
	{`{"n": 16} {"n": 8}`, `trailing`},
}

// TestScenarioSpecFieldErrors: every invalid field is rejected with a
// message naming that field.
func TestScenarioSpecFieldErrors(t *testing.T) {
	for _, c := range specFieldErrorCases {
		_, err := ParseScenarioSpec([]byte(c.doc))
		if err == nil {
			t.Errorf("doc %s accepted, want error mentioning %s", c.doc, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("doc %s: error %q does not mention %s", c.doc, err, c.want)
		}
	}
	// The size bounds themselves are accepted.
	for _, doc := range []string{`{"n": 65536}`, `{"n": 16, "channels": 1024}`, `{"n": 16, "seeds": 65536}`, `{"n": 16, "loss": [0, 0.1], "seeds": 32768}`} {
		if _, err := ParseScenarioSpec([]byte(doc)); err != nil {
			t.Errorf("doc %s at the size bound rejected: %v", doc, err)
		}
	}
}

// FuzzParseScenarioSpec: the parser never panics, every document it
// accepts re-marshals and re-parses to byte-identical JSON, and every
// accepted document compiles.
func FuzzParseScenarioSpec(f *testing.F) {
	f.Add([]byte(stormSpecGolden))
	f.Add([]byte(`{"n": 16}`))
	f.Add([]byte(`{"n": 20, "channels": 4, "colorer": "dplus1"}`))
	f.Add([]byte(`{"n": 16, "channels": 1024, "jam": [0, 1023]}`))
	for _, c := range specFieldErrorCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseScenarioSpec(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseScenarioSpec(first)
		if err != nil {
			t.Fatalf("re-marshaled spec %s rejected: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("round trip drifted:\n first %s\nsecond %s", first, second)
		}
		if _, err := sp.Compile(); err != nil {
			t.Fatalf("accepted spec %s does not compile: %v", first, err)
		}
	})
}

// TestSpecSweepMatchesRunScenario: compiling a spec document and folding
// its item results out of order yields byte-for-byte the table
// RunScenario emits — the identity the scenario service's durability
// guarantee is built on.
func TestSpecSweepMatchesRunScenario(t *testing.T) {
	sp, err := ParseScenarioSpec([]byte(
		`{"name": "svc", "n": 24, "channels": 3, "loss": [0, 0.1], "jam": [0, 1], "seeds": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(context.Background(), sp, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	sw, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Run the items out of order, as a resumed service would.
	results := make([]RunResult, sw.Len())
	for i := sw.Len() - 1; i >= 0; i-- {
		results[i], err = sw.Run(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := sw.Fold(results)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("sweep fold differs from RunScenario:\n%s\n---\n%s", got.Render(), want.Render())
	}
	if got.CSV() != want.CSV() {
		t.Errorf("sweep fold CSV differs from RunScenario")
	}
}
