package phy

import (
	"math"

	"mcnet/internal/geo"
)

// This file resolves exact slots from the deployment's link-gain table.
// Nodes never move, so the received power P/d(j,i)^α of every ordered node
// pair is a constant of the deployment. The table holds all n² of them,
// computed once with exactly the arithmetic the on-the-fly kernel
// (resolveOneExact) uses per pair, so looking a power up instead of
// recomputing it changes no bit of any Reception.
//
// The table kernel scans transmitter-major: per channel, it walks the
// transmitters in segment order and streams each one's row across that
// channel's listeners in node order, accumulating every listener's total,
// strongest sender and its power. Each listener therefore sums its powers in
// transmitter order, exactly as the on-the-fly kernel does. A row is one
// contiguous n-float run read forward, which the hardware prefetchers
// follow; the listener-major transpose (gathering one column entry per
// transmitter) was measured slower end to end.

// maxGainTableBytes caps the link-gain table at n²·8 bytes: larger
// deployments resolve on the fly. Set from BenchmarkResolveTable* and
// BenchmarkResolveOnTheFly* on a 2-vCPU Xeon VM (105 MiB L3): the table
// scan is 3.3× faster at n = 1024 (8 MiB table) and 1.85× at n = 2048
// (32 MiB), but at n = 4096 its 128 MiB stream from DRAM and the two
// kernels tie, while the table still costs its memory and a ~0.3 s build.
const maxGainTableBytes = 32 << 20

// gains returns the deployment's link-gain table, building it on first use.
// gain[j·n+i] is the power listener i receives from transmitter j. It
// returns nil when the table would exceed maxGainTableBytes, or when some
// pair's power is one the table kernel cannot reproduce bit-for-bit (see
// buildGains); such deployments always resolve on the fly.
func (d *Deployment) gains() []float64 {
	d.gainOnce.Do(func() {
		n := uint64(len(d.pos))
		if n*n <= maxGainTableBytes/8 {
			d.gain = d.buildGains()
		}
	})
	return d.gain
}

// buildGains computes the full table, or nil when some power is negative
// or NaN: the on-the-fly kernels rank those differently from one another,
// so no single table scan reproduces both.
func (d *Deployment) buildGains() []float64 {
	n := len(d.pos)
	gain := make([]float64, n*n)
	fast := d.dist == nil && d.cube
	dist := d.dist
	if dist == nil {
		dist = geo.Euclidean
	}
	power := d.power
	for j, t := range d.pos {
		row := gain[j*n : (j+1)*n]
		for i, l := range d.pos {
			var pw float64
			if fast {
				// The arithmetic of resolveOneExact's hot loop.
				dx, dy := l.X-t.X, l.Y-t.Y
				r := math.Sqrt(dx*dx + dy*dy)
				if r <= 0 {
					pw = math.Inf(1)
				} else {
					pw = power / (r * r * r)
				}
			} else {
				pw = d.params.PowerAtDistance(dist(l, t))
			}
			if !(pw >= 0) {
				return nil
			}
			row[i] = pw
		}
	}
	return gain
}

// slotListeners is the per-slot listener layout: rxs segmented by channel
// via a stable counting sort (so each channel's listeners keep their rxs
// order, which the engine emits in node order), plus the table kernel's
// per-listener accumulators, parallel to the layout. Like slotSoA it is
// per-Field scratch reused across slots.
type slotListeners struct {
	// off[c]..off[c+1] is channel c's segment of the slices below.
	off    []int32
	cursor []int32
	rx     []int32 // index of the listen in the slot's rxs slice
	node   []int32 // listener node ids

	total, bestPow []float64
	best           []int32 // strongest sender's transmitter-layout index, or -1

	// sending marks this slot's transmitting nodes while overlaps runs.
	sending []bool
}

// reserve presizes the layout for slots of up to maxRx listeners over n
// nodes.
func (l *slotListeners) reserve(channels, maxRx, n int) {
	l.off = growInt32(l.off, channels+1)
	l.cursor = growInt32(l.cursor, channels)
	l.rx = growInt32(l.rx, maxRx)
	l.node = growInt32(l.node, maxRx)
	l.total = growFloat(l.total, maxRx)
	l.bestPow = growFloat(l.bestPow, maxRx)
	l.best = growInt32(l.best, maxRx)
	if len(l.sending) < n {
		l.sending = make([]bool, n)
	}
}

// prepare builds the channel-segmented listener layout for one slot.
// Listens on out-of-range channels panic before any worker fan-out.
func (l *slotListeners) prepare(f *Field, rxs []Rx) {
	channels := f.params.Channels
	l.reserve(channels, len(rxs), len(f.pos))
	for c := 0; c <= channels; c++ {
		l.off[c] = 0
	}
	for i := range rxs {
		c := rxs[i].Channel
		if c < 0 || c >= channels {
			panic("phy: listen on invalid channel")
		}
		l.off[c+1]++
	}
	for c := 0; c < channels; c++ {
		l.off[c+1] += l.off[c]
		l.cursor[c] = l.off[c]
	}
	for i := range rxs {
		rx := &rxs[i]
		k := l.cursor[rx.Channel]
		l.cursor[rx.Channel] = k + 1
		l.rx[k] = int32(i)
		l.node[k] = int32(rx.Node)
	}
}

// pairs returns the slot's same-channel listener×transmitter pair count
// Σ_c tx_c·rx_c, the work every exact kernel does.
func (l *slotListeners) pairs(s *slotSoA) int {
	total := 0
	for c := 0; c+1 < len(l.off); c++ {
		total += int(l.off[c+1]-l.off[c]) * int(s.off[c+1]-s.off[c])
	}
	return total
}

// overlaps reports whether some node both transmits and listens in the
// slot. The engine never submits both, but the on-the-fly kernel skips a
// listener's own transmission; the table kernel does not, so such slots
// resolve on the fly.
func (l *slotListeners) overlaps(txs []Tx) bool {
	for i := range txs {
		l.sending[txs[i].Node] = true
	}
	found := false
	for _, v := range l.node[:l.off[len(l.off)-1]] {
		if l.sending[v] {
			found = true
			break
		}
	}
	for i := range txs {
		l.sending[txs[i].Node] = false
	}
	return found
}

// resolveTableRange resolves the listeners at layout positions lo..hi from
// the link-gain table into out, one channel run at a time, bit-identically
// to resolveOneExact followed by the jam fold.
func (f *Field) resolveTableRange(txs []Tx, out []Reception, lo, hi int) {
	l := &f.lis
	for c := 0; c < f.params.Channels; c++ {
		clo, chi := max(lo, int(l.off[c])), min(hi, int(l.off[c+1]))
		if clo >= chi {
			continue
		}
		f.scanTable(c, clo, chi)
		for p := clo; p < chi; p++ {
			best := -1
			if l.best[p] >= 0 {
				best = int(f.soa.tx[l.best[p]])
			}
			rec := &out[l.rx[p]]
			f.decide(rec, txs, l.total[p], l.bestPow[p], best)
			if f.jammed[c] {
				jamFold(rec)
			}
		}
	}
}

// scanTable accumulates, for channel c's listeners at layout positions
// lo..hi, the total received power and the strongest sender, walking the
// channel's transmitters in segment order and each transmitter's table row
// across the listeners. The strict comparison against a -Inf start keeps
// the first of equal maxima, as the on-the-fly kernel does.
func (f *Field) scanTable(c, lo, hi int) {
	l := &f.lis
	n := len(f.pos)
	nodes := l.node[lo:hi]
	total := l.total[lo:hi:hi][:len(nodes)]
	bestPow := l.bestPow[lo:hi:hi][:len(nodes)]
	best := l.best[lo:hi:hi][:len(nodes)]
	for m := range nodes {
		total[m], bestPow[m], best[m] = 0, math.Inf(-1), -1
	}
	// Four rows per pass keep each listener's accumulators in registers
	// across four transmitters: 1.3× over one row per pass, while eight
	// spill and lose (BenchmarkResolveTable1k).
	tlo, thi := f.soa.segment(c)
	k := tlo
	for ; k+4 <= thi; k += 4 {
		j0, j1 := int(f.soa.node[k])*n, int(f.soa.node[k+1])*n
		j2, j3 := int(f.soa.node[k+2])*n, int(f.soa.node[k+3])*n
		r0, r1 := f.gain[j0:j0+n], f.gain[j1:j1+n]
		r2, r3 := f.gain[j2:j2+n], f.gain[j3:j3+n]
		k0 := int32(k)
		for m, i := range nodes {
			p0, p1, p2, p3 := r0[i], r1[i], r2[i], r3[i]
			t, bp, b := total[m], bestPow[m], best[m]
			t += p0
			if p0 > bp {
				bp, b = p0, k0
			}
			t += p1
			if p1 > bp {
				bp, b = p1, k0+1
			}
			t += p2
			if p2 > bp {
				bp, b = p2, k0+2
			}
			t += p3
			if p3 > bp {
				bp, b = p3, k0+3
			}
			total[m], bestPow[m], best[m] = t, bp, b
		}
	}
	for ; k < thi; k++ {
		j := int(f.soa.node[k])
		row := f.gain[j*n : j*n+n]
		for m, i := range nodes {
			pw := row[i]
			total[m] += pw
			if pw > bestPow[m] {
				bestPow[m], best[m] = pw, int32(k)
			}
		}
	}
}
