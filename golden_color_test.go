package mcnet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mcnet/internal/golden"
)

// goldenColorRun freezes everything observable about one default-backend
// Color run: the full per-node result vector plus the validation summary and
// slot accounting. The sec7 backend must keep reproducing these bytes
// exactly — the refactor behind the Colorer interface is required to leave
// the default path bit-identical.
type goldenColorRun struct {
	Name       string      `json:"name"`
	Nodes      []NodeColor `json:"nodes"`
	Palette    int         `json:"palette"`
	Conflicts  int         `json:"conflicts"`
	Uncolored  int         `json:"uncolored"`
	Slots      int         `json:"slots"`
	ColorSlots int         `json:"color_slots"`
}

// goldenColorCases spans the topology suite at mixed channel counts and
// seeds, so the frozen transcript covers every structure-construction shape.
func goldenColorCases(t *testing.T) []struct {
	name string
	n    int
	opts []Option
} {
	t.Helper()
	return []struct {
		name string
		n    int
		opts []Option
	}{
		{"crowd_n40_f4_s11", 40, []Option{Seed(11), Channels(4)}},
		{"uniform_n64_f4_s3", 64, []Option{Seed(3), Channels(4), WithTopology(Uniform(12))}},
		{"grid_n49_f2_s5", 49, []Option{Seed(5), Channels(2), WithTopology(Grid)}},
		{"line_n32_f4_s7", 32, []Option{Seed(7), Channels(4), WithTopology(Line(0.7))}},
		{"ring_n32_f2_s9", 32, []Option{Seed(9), Channels(2), WithTopology(Ring(0.7))}},
	}
}

// TestColorGoldenSec7 runs the default coloring backend over the golden
// cases and compares every per-node color, index, cluster color and role —
// plus palette/conflict/slot accounting — against the committed pre-refactor
// output. Regenerate with -update-golden (only when an intentional behavior
// change to the default path is being made).
func TestColorGoldenSec7(t *testing.T) {
	path := filepath.Join("testdata", "golden_color_sec7.json")
	var runs []goldenColorRun
	for _, tc := range goldenColorCases(t) {
		nw, err := New(tc.n, tc.opts...)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		res, err := nw.Color(context.Background())
		if err != nil {
			t.Fatalf("%s: Color: %v", tc.name, err)
		}
		runs = append(runs, goldenColorRun{
			Name:       tc.name,
			Nodes:      res.Nodes,
			Palette:    res.Palette,
			Conflicts:  res.Conflicts,
			Uncolored:  res.Uncolored,
			Slots:      res.Slots,
			ColorSlots: res.ColorSlots,
		})
	}

	if *golden.Update {
		data, err := json.MarshalIndent(runs, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", path, len(runs))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenColorRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if len(want) != len(runs) {
		t.Fatalf("golden file has %d runs, current suite has %d", len(want), len(runs))
	}
	for i, w := range want {
		g := runs[i]
		if g.Name != w.Name {
			t.Errorf("run %d: name %q, golden %q", i, g.Name, w.Name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			if !reflect.DeepEqual(g.Nodes, w.Nodes) {
				for j := range w.Nodes {
					if j < len(g.Nodes) && g.Nodes[j] != w.Nodes[j] {
						t.Errorf("%s: node %d = %+v, golden %+v", w.Name, j, g.Nodes[j], w.Nodes[j])
						break
					}
				}
			}
			t.Errorf("%s: summary {palette %d conflicts %d uncolored %d slots %d colorSlots %d}, golden {%d %d %d %d %d}",
				w.Name, g.Palette, g.Conflicts, g.Uncolored, g.Slots, g.ColorSlots,
				w.Palette, w.Conflicts, w.Uncolored, w.Slots, w.ColorSlots)
		}
	}
}
