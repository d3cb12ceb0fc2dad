package phy

import "math"

// This file resolves exact slots from the deployment's link-gain table.
// Nodes never move, so the received power P/d(j,i)^α of every ordered node
// pair is a constant of the deployment. The table holds all n² of them,
// computed once with exactly the arithmetic the on-the-fly kernel
// (resolveOneExact) uses per pair, so looking a power up instead of
// recomputing it changes no bit of any Reception.
//
// The table kernel scans transmitter-major: per channel, it walks the
// transmitters in segment order and streams each one's row across that
// channel's listeners in node order, accumulating every listener's total
// and strongest power. Each listener therefore sums its powers in
// transmitter order, exactly as the on-the-fly kernel does. A row is one
// contiguous n-float run read forward, which the hardware prefetchers
// follow; the listener-major transpose (gathering one column entry per
// transmitter) was measured slower end to end. The strongest power is
// tracked as an integer max of IEEE bit patterns, without a branch per
// pair, and the sender is looked up only for a listener that decodes: on
// the backbone stage's slot shape (BenchmarkResolveTableBackbone, about a
// dozen transmitters and a thousand listeners) Resolve took 62–79 µs per
// slot with a compare-and-branch per pair and takes 30–40 µs without
// (2-vCPU Intel Xeon VM, go1.24.0, best of 5 in each of three alternating
// rounds).

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

// buildGains computes the full table with resolveOneExact's arithmetic, or
// nil when some power is negative, −0 or NaN (a non-positive power or a
// NaN position): the table kernel ranks powers by their bit patterns, which
// order like the values only from +0 up.
func (d *Deployment) buildGains() []float64 {
	n := len(d.pos)
	gain := make([]float64, n*n)
	power := d.params.Power
	for j, t := range d.pos {
		row := gain[j*n : (j+1)*n]
		for i, l := range d.pos {
			dx, dy := l.X-t.X, l.Y-t.Y
			r := math.Sqrt(dx*dx + dy*dy)
			var pw float64
			if r <= 0 {
				pw = math.Inf(1)
			} else {
				pw = power / (r * r * r)
			}
			if !(pw >= 0) || math.Signbit(pw) {
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
	rx     []int32    // index of the listen in the slot's rxs slice
	acc    []listener // the listener and its table-kernel accumulators
}

// listener is one slot listener in the layout with the table kernel's
// accumulators (scanTable), kept together so the scan reads and writes one
// record per listener.
type listener struct {
	total float64 // the summed received power
	best  uint64  // the bit pattern of the strongest received power
	node  int32   // the listener's node id
	pass  int32   // the first transmitter of the scan pass that first reached best
}

// reserve presizes the layout for slots of up to maxRx listeners.
func (l *slotListeners) reserve(channels, maxRx int) {
	l.off = grow(l.off, channels+1)
	l.cursor = grow(l.cursor, channels)
	l.rx = grow(l.rx, maxRx)
	l.acc = grow(l.acc, maxRx)
}

// prepare builds the channel-segmented listener layout for one slot.
// Listens on out-of-range channels panic before any worker fan-out.
func (l *slotListeners) prepare(f *Field, rxs []Rx) {
	channels := f.params.Channels
	l.reserve(channels, len(rxs))
	off, cursor := l.off[:channels+1], l.cursor[:channels]
	clear(off)
	for i := range rxs {
		c := rxs[i].Channel
		if uint(c) >= uint(channels) {
			panic("phy: listen on invalid channel")
		}
		off[c+1]++
	}
	for c := range cursor {
		off[c+1] += off[c]
		cursor[c] = off[c]
	}
	rx, acc := l.rx[:len(rxs)], l.acc[:len(rxs)]
	for i := range rxs {
		k := cursor[rxs[i].Channel]
		cursor[rxs[i].Channel] = k + 1
		rx[k] = int32(i)
		acc[k].node = int32(rxs[i].Node)
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
		tlo, thi := f.soa.segment(c)
		if tlo == thi {
			// Nothing on the channel: every listener hears silence.
			for p := clo; p < chi; p++ {
				out[l.rx[p]] = Reception{From: -1}
			}
			continue
		}
		f.scanTable(c, clo, chi)
		jammed := f.jammed[c]
		for p := clo; p < chi; p++ {
			a := &l.acc[p]
			rec := &out[l.rx[p]]
			bestPow := math.Float64frombits(a.best)
			if !f.decodes(a.total, bestPow) {
				*rec = Reception{From: -1, Interference: a.total}
				continue
			}
			f.decoded(rec, &txs[f.strongest(int(a.pass), thi, a.node, bestPow)], a.total, bestPow)
			if jammed {
				jamFold(rec)
			}
		}
	}
}

// strongest returns the txs index of the first transmitter from layout
// position k on whose power at listener i is bestPow.
func (f *Field) strongest(k, thi int, i int32, bestPow float64) int {
	n := len(f.pos)
	for ; k < thi; k++ {
		if f.gain[int(f.soa.node[k])*n+int(i)] == bestPow {
			return int(f.soa.tx[k])
		}
	}
	panic("phy: strongest power not in the channel segment")
}

// scanTable accumulates, for channel c's listeners at layout positions
// lo..hi, the total received power and the bit pattern of the strongest
// one, walking the channel's transmitters in segment order and each
// transmitter's table row across the listeners, so each total sums in
// transmitter order. Table powers are non-negative and never −0 or NaN
// (buildGains), so their IEEE bit patterns order like their values and the
// strongest is an integer max, with no branch per pair. The scan also
// keeps the first transmitter of the pass (four rows, or one tail row) in
// which each listener's max first reached its final value, so strongest,
// run only for a listener that decodes, finds the first of equal maxima —
// the transmitter resolveOneExact's strict comparison keeps — in at most
// four lookups.
func (f *Field) scanTable(c, lo, hi int) {
	n := len(f.pos)
	acc := f.lis.acc[lo:hi]
	tlo, thi := f.soa.segment(c)
	for m := range acc {
		// The bits of +0, the least table power.
		acc[m].total, acc[m].best, acc[m].pass = 0, 0, int32(tlo)
	}
	// Four rows per pass keep each listener's accumulators in registers
	// across four transmitters. Against one row per pass they are 1.1–1.2×
	// faster on BenchmarkResolveTable1k and 2k; eight rows per pass lose
	// 1.45× on BenchmarkResolveTableBackbone, whose dozen transmitters then
	// fall mostly to the one-row tail.
	k := tlo
	for ; k+4 <= thi; k += 4 {
		j0, j1 := int(f.soa.node[k])*n, int(f.soa.node[k+1])*n
		j2, j3 := int(f.soa.node[k+2])*n, int(f.soa.node[k+3])*n
		r0, r1 := f.gain[j0:j0+n], f.gain[j1:j1+n]
		r2, r3 := f.gain[j2:j2+n], f.gain[j3:j3+n]
		k0 := int32(k)
		for m := range acc {
			a := &acc[m]
			i := a.node
			p0, p1, p2, p3 := r0[i], r1[i], r2[i], r3[i]
			a.total = a.total + p0 + p1 + p2 + p3
			b := max(math.Float64bits(p0), math.Float64bits(p1),
				math.Float64bits(p2), math.Float64bits(p3))
			// A conditional move: the compiler selects both fields
			// without a branch.
			bm, pm := a.best, a.pass
			if b > bm {
				bm, pm = b, k0
			}
			a.best, a.pass = bm, pm
		}
	}
	for ; k < thi; k++ {
		j := int(f.soa.node[k])
		row := f.gain[j*n : j*n+n]
		for m := range acc {
			a := &acc[m]
			pw := row[a.node]
			a.total += pw
			b, bm, pm := math.Float64bits(pw), a.best, a.pass
			if b > bm {
				bm, pm = b, int32(k)
			}
			a.best, a.pass = bm, pm
		}
	}
}
