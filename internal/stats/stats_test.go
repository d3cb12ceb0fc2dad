package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestMedianProperty(t *testing.T) {
	// Property: median is between min and max and at least half the sample
	// lies on each side (within tie tolerance).
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Median(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return m >= sorted[0] && m <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestMedianInt(t *testing.T) {
	if got := MedianInt([]int{1, 2, 10}); got != 2 {
		t.Errorf("MedianInt = %d", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "x", "value")
	tb.AddRow("1", "10")
	tb.AddRow("22", "5")
	tb.AddNote("seeds=%d", 3)
	out := tb.Render()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "x   value") {
		t.Errorf("misaligned header:\n%s", out)
	}
	if !strings.Contains(out, "note: seeds=3") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2")
	got := tb.CSV()
	want := "# t\na,b\n1,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	out := tb.Render()
	if !strings.Contains(out, "1") {
		t.Error("short row dropped")
	}
}

func TestFormatters(t *testing.T) {
	if I(42) != "42" || F(1.234) != "1.23" || F1(1.26) != "1.3" {
		t.Error("formatter output unexpected")
	}
}

func TestPct(t *testing.T) {
	cases := []struct {
		a, b int
		want string
	}{
		{0, 0, "-"},
		{5, 0, "-"},
		{0, 7, "0%"},
		{1, 3, "33%"},
		{2, 3, "67%"},
		{48, 48, "100%"},
	}
	for _, c := range cases {
		if got := Pct(c.a, c.b); got != c.want {
			t.Errorf("Pct(%d, %d) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}
