package mcnet

import (
	"math"
	"testing"
	"time"
)

// withDeadline runs fn on its own goroutine and fails the test if fn has
// not returned within d: a deployment that sends the spatial grid into an
// endless loop fails the test instead of hanging the suite.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// TestNonFiniteDeploymentsRejected: a layout with a NaN or infinite
// coordinate, or a topology parameter that would produce one, is an error
// from New; it neither hangs New nor yields a network whose Stats hang.
func TestNonFiniteDeploymentsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		n    int
		topo Topology
	}{
		{"NaN position", 3, Positions([]Point{{0, 0}, {nan, 0}, {0.1, 0}})},
		{"+Inf position", 3, Positions([]Point{{0, 0}, {0, inf}, {0.1, 0}})},
		{"-Inf position", 3, Positions([]Point{{-inf, 0}, {0, 0}, {0.1, 0}})},
		{"overflowing extent", 3, Positions([]Point{{-math.MaxFloat64, 0}, {0, 0}, {math.MaxFloat64, 0}})},
		{"chain past float64", 1100, Chain},
		{"Uniform(NaN)", 16, Uniform(nan)},
		{"Line(NaN)", 16, Line(nan)},
		{"Ring(NaN)", 16, Ring(nan)},
		{"Hotspot NaN span", 16, Hotspot(2, 8, nan, 0.1)},
		{"Hotspot NaN stddev", 16, Hotspot(2, 8, 3, nan)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withDeadline(t, 10*time.Second, func() {
				nw, err := New(tc.n, WithTopology(tc.topo))
				if err == nil {
					nw.Stats()
					t.Errorf("accepted: positions %v…", nw.Positions()[:2])
				}
			})
		})
	}
}

// FuzzNewPositions: for any three explicit points, New either returns an
// error or a network whose positions are finite and whose Stats return.
func FuzzNewPositions(f *testing.F) {
	f.Add(0.0, 0.0, 0.1, 0.0, 0.0, 0.1)
	f.Add(0.0, 0.0, math.NaN(), 0.0, 1.0, 1.0)
	f.Add(math.Inf(-1), 0.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(-math.MaxFloat64, 0.0, math.MaxFloat64, 0.0, 0.0, 0.0)
	f.Add(1e300, 1e300, -1e300, -1e300, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2 float64) {
		withDeadline(t, 10*time.Second, func() {
			nw, err := New(3, WithTopology(Positions([]Point{{x0, y0}, {x1, y1}, {x2, y2}})))
			if err != nil {
				return
			}
			for i, q := range nw.Positions() {
				if math.IsNaN(q.X) || math.IsInf(q.X, 0) || math.IsNaN(q.Y) || math.IsInf(q.Y, 0) {
					t.Errorf("node %d at non-finite %v", i, q)
					return
				}
			}
			nw.Stats()
		})
	})
}
