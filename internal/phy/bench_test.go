package phy

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// benchSlot builds a slot with n nodes spread over span×span units, txFrac
// of them transmitting across the given channels, and resolves it under the
// configured field. One untimed warm-up call grows all scratch and starts
// the worker pool, so the timed loop measures the allocation-free steady
// state even at -benchtime=1x (the CI tripwire's setting).
func benchSlot(b *testing.B, n, channels int, span, txFrac float64, configure func(*Field)) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
	}
	f := NewField(model.Default(channels, n), pos)
	if configure != nil {
		configure(f)
	}
	var txs []Tx
	var rxs []Rx
	for i := 0; i < n; i++ {
		if r.Float64() < txFrac {
			txs = append(txs, Tx{Node: i, Channel: r.Intn(channels), Msg: i})
		} else {
			rxs = append(rxs, Rx{Node: i, Channel: r.Intn(channels)})
		}
	}
	f.Resolve(txs, rxs) // warm up scratch and the worker pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resolve(txs, rxs)
	}
}

func BenchmarkResolve256Nodes1Channel(b *testing.B)  { benchSlot(b, 256, 1, 5, 0.2, nil) }
func BenchmarkResolve256Nodes8Channels(b *testing.B) { benchSlot(b, 256, 8, 5, 0.2, nil) }
func BenchmarkResolve1kNodes8Channels(b *testing.B)  { benchSlot(b, 1024, 8, 5, 0.2, nil) }

// Serial vs fan-out on the same dense slot: bit-identical outcomes, only
// wall-clock differs (the gap requires GOMAXPROCS > 1).
func BenchmarkResolve4kSerial(b *testing.B) {
	benchSlot(b, 4096, 8, 10, 0.3, func(f *Field) { f.SetParallelism(1) })
}
func BenchmarkResolve4kParallel(b *testing.B) {
	benchSlot(b, 4096, 8, 10, 0.3, func(f *Field) { f.SetParallelism(0) })
}

// BenchmarkResolveCrowdDense is the AggregateCrowd hot shape: one tight
// cluster, half the nodes transmitting on one channel, every other node
// listening — the dense ACK slots that dominate the 16k crowd pipeline. At
// n = 4096 the deployment is above the table cap, so this measures the
// struct-of-arrays on-the-fly kernel itself.
func benchCrowdDense(b *testing.B, configure func(*Field)) {
	b.Helper()
	const n = 4096
	r := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * 0.15, Y: r.Float64() * 0.15}
	}
	f := NewField(model.Default(8, n), pos)
	if configure != nil {
		configure(f)
	}
	var txs []Tx
	var rxs []Rx
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			txs = append(txs, Tx{Node: i, Channel: 0, Msg: i})
		} else {
			rxs = append(rxs, Rx{Node: i, Channel: 0})
		}
	}
	f.Resolve(txs, rxs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resolve(txs, rxs)
	}
}

func BenchmarkResolveCrowdDenseSerial(b *testing.B) {
	benchCrowdDense(b, func(f *Field) { f.SetParallelism(1) })
}
func BenchmarkResolveCrowdDenseParallel(b *testing.B) {
	benchCrowdDense(b, func(f *Field) { f.SetParallelism(0) })
}

// benchClusteredSlot is the spread-deployment regime: crowds of
// transmitters scattered over a span ≫ R_T.
func benchClusteredSlot(b *testing.B, clusters, per, channels int, span float64, configure func(*Field)) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	n := clusters * per
	pos := make([]geo.Point, 0, n)
	for c := 0; c < clusters; c++ {
		cx, cy := r.Float64()*span, r.Float64()*span
		for k := 0; k < per; k++ {
			pos = append(pos, geo.Point{X: cx + r.NormFloat64()*0.05, Y: cy + r.NormFloat64()*0.05})
		}
	}
	f := NewField(model.Default(channels, n), pos)
	if configure != nil {
		configure(f)
	}
	var txs []Tx
	var rxs []Rx
	for i := 0; i < n; i++ {
		if r.Float64() < 0.3 {
			txs = append(txs, Tx{Node: i, Channel: r.Intn(channels), Msg: i})
		} else {
			rxs = append(rxs, Rx{Node: i, Channel: r.Intn(channels)})
		}
	}
	f.Resolve(txs, rxs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resolve(txs, rxs)
	}
}

// 32 crowds of 256 nodes across 200 R_T: n = 8192 is above the table cap,
// so every pair is computed on the fly.
func BenchmarkResolveHotspotsExact(b *testing.B) {
	benchClusteredSlot(b, 32, 256, 8, 200, func(f *Field) { f.SetParallelism(1) })
}

// Link-gain table vs on-the-fly exact kernel on the same slot over a
// uniform field of degree ≈ 12 (the field-agg shape, scaled with n), F = 8,
// a fifth of the nodes transmitting. The table rows build the table even
// above maxGainTableBytes, so the pairs show where the crossover lies; the
// warm-up slot absorbs the build. The serial rows compare kernels; the
// Parallel rows pair with them to place minParallelWork.
func benchTable(b *testing.B, n int, table bool, workers int) {
	span := math.Sqrt(float64(n) * math.Pi / 12)
	benchSlot(b, n, 8, span, 0.2, func(f *Field) {
		f.SetParallelism(workers)
		d := f.Deployment
		if table {
			d.gainOnce.Do(func() { d.gain = d.buildGains() })
		} else {
			d.gainOnce.Do(func() {})
		}
	})
}

func BenchmarkResolveTable1k(b *testing.B)         { benchTable(b, 1024, true, 1) }
func BenchmarkResolveTable1kParallel(b *testing.B) { benchTable(b, 1024, true, 0) }
func BenchmarkResolveOnTheFly1k(b *testing.B)      { benchTable(b, 1024, false, 1) }
func BenchmarkResolveTable2k(b *testing.B)         { benchTable(b, 2048, true, 1) }
func BenchmarkResolveTable2kParallel(b *testing.B) { benchTable(b, 2048, true, 0) }
func BenchmarkResolveOnTheFly2k(b *testing.B)      { benchTable(b, 2048, false, 1) }
func BenchmarkResolveTable4k(b *testing.B)         { benchTable(b, 4096, true, 1) }
func BenchmarkResolveOnTheFly4k(b *testing.B)      { benchTable(b, 4096, false, 1) }
