package mcnet

import (
	"context"
	"testing"
)

// BenchmarkColor runs the coloring verb end-to-end — network construction,
// the backend's full protocol on the simulation engine, validation — once
// per iteration for each pluggable backend on the dense crowd (Δ = n-1),
// the paper's motivating workload. Sub-benchmark names are the backend
// names, so benchdiff tracks each protocol's cost separately.
//
// Run with: go test -bench=BenchmarkColor -benchmem
func BenchmarkColor(b *testing.B) {
	const n = 64
	for _, backend := range ColorerNames() {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, err := New(n, Channels(4), Seed(11), Colorer(backend))
				if err != nil {
					b.Fatal(err)
				}
				res, err := nw.Color(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Conflicts != 0 {
					b.Fatalf("%s: %d conflicts on the crowd", backend, res.Conflicts)
				}
			}
		})
	}
}

// BenchmarkColorField is the PR-tier row that sees a whole sec7 coloring:
// one complete Color — structure construction and all four procedures — on
// the field-color workload of the end-to-end benchmark (Uniform(12),
// n = 1024, F = 8).
//
// Run with: go test -bench='BenchmarkColorField$' -benchtime=1x -benchmem
func BenchmarkColorField(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nw, err := New(1024, Channels(8), WithTopology(Uniform(12)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Color(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
