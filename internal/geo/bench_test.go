package geo

import (
	"math/rand"
	"testing"
)

func BenchmarkGridNeighbors(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]Point, 4096)
	for i := range pts {
		pts[i] = Point{X: r.Float64() * 64, Y: r.Float64() * 64}
	}
	g := NewGrid(pts, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pts[i%len(pts)]
		g.ForNeighbors(q, 1, func(int) bool { return true })
	}
}

func BenchmarkGridBuild4k(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := make([]Point, 4096)
	for i := range pts {
		pts[i] = Point{X: r.Float64() * 64, Y: r.Float64() * 64}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGrid(pts, 1)
	}
}
