package phy

import (
	"math"

	"mcnet/internal/geo"
)

// This file implements the hierarchical cell-aggregated resolver, the
// default resolution mode under the Euclidean metric. Exact resolution
// scans every same-channel transmitter per listener — O(|rxs|·|txs|) per
// slot. Here each slot's transmitters are binned once, per channel, into
// the field's spatial grid — O(|txs|) — and laid out cell-by-cell in
// struct-of-arrays form; a listener scans the cells near it
// transmitter-by-transmitter (exactly) and folds every cell beyond a
// cutoff into a single centroid term, cutting the per-listener cost to
// O(near transmitters + occupied cells).
//
// # Error bound
//
// Let g be the grid cell size and w = g·√2 a cell's diagonal. The
// aggregation point is the member mean, which lies inside the cell (the
// cell is convex), so every transmitter in the cell is within w of it —
// the diameter, not the half-diagonal, since members and their mean can
// sit in opposite corners. A cell whose contents are aggregated lies
// entirely beyond the near region, so the listener-to-centroid distance d
// satisfies d ≥ D where
//
//	D = w / (1 − (1+ε)^(−1/α)),   ε = the configured tolerance.
//
// Each member's true distance is then in [d−w, d+w] and the centroid
// approximation P/d^α is off by at most the factor (d/(d−w))^α ≤ 1+ε (and
// at least (d/(d+w))^α ≥ 1/(1+ε) by the same algebra). Summing over cells,
// the far-field interference term carries relative error at most ε. Using
// the mean rather than the cell center keeps this worst case while being
// more accurate in the typical case (member displacements from their mean
// cancel at first order).
//
// # Exactness of decoding candidates
//
// The near region always extends at least to the transmission range
// R_T = (P/(βN))^{1/α}: any transmitter beyond R_T has received power below
// β·N and can never satisfy the SINR threshold, so the strongest decodable
// candidate is always scanned exactly. Decode outcomes can therefore differ
// from exact mode only when the exact SINR lies within the far-field error
// of the threshold β — interference and RSSI are otherwise within relative
// error ε, and which message decodes is unaffected.
//
// # Determinism
//
// Cells appear in first-transmitter order per channel and members keep
// their transmission order within a cell (the binning sort is stable), so
// every listener accumulates its sum in a fixed order: equal slots resolve
// to equal receptions at every worker count, run after run. In the common
// dense case where every occupied cell of a channel is near (e.g. the
// Crowd topology, which fits inside one cell), the scan degenerates to the
// exact mode's transmitter-order scan and the outcome is bit-identical to
// exact resolution.
type hierState struct {
	grid *geo.Grid
	cols int32
	// cellCol/cellRow give each node's grid cell, precomputed at build.
	cellCol, cellRow []int32
	// nearRings is the cell-coordinate Chebyshev radius scanned exactly
	// around a listener; everything farther is centroid-aggregated.
	nearRings int32
	// degenerate reports that the grid's whole extent fits inside the near
	// region: no cell can ever be aggregated, so slots resolve through the
	// exact kernel (bit-identical to exact mode) and skip binning — dense
	// deployments like the Crowd topology pay no hierarchical overhead.
	degenerate bool

	// Per-slot scratch, rebuilt by prepare for every Resolve call. cells
	// holds every channel's occupied cells back to back; channel c's cells
	// are cells[cellSeg[c]:cellSeg[c+1]]. The parallel x/y/node/tx slices
	// are the cell-ordered struct-of-arrays member layout.
	cells   []hcell
	cellSeg []int32
	x, y    []float64
	node    []int32
	tx      []int32

	cellIdx []int32 // member slot → cell slot, between binning passes
	cur     []int32 // scatter cursors, one per occupied cell
	stamp   []uint64
	slot    []int32
	gen     uint64
}

// hcell is one occupied grid cell on one channel for one slot: its members
// are hierState.x/y/node/tx[start:end], and (cx, cy) is their centroid.
type hcell struct {
	col, row   int32
	start, end int32
	cx, cy     float64
}

func newHierState(f *Field) *hierState {
	grid := geo.NewGrid(f.pos, f.params.RT()*f.cellFrac)
	cols, rows := grid.Dims()
	h := &hierState{
		grid:    grid,
		cols:    int32(cols),
		cellCol: make([]int32, len(f.pos)),
		cellRow: make([]int32, len(f.pos)),
		stamp:   make([]uint64, cols*rows),
		slot:    make([]int32, cols*rows),
	}
	for i, p := range f.pos {
		c, r := grid.CellCoord(p)
		h.cellCol[i], h.cellRow[i] = int32(c), int32(r)
	}
	h.setCutoff(f, f.tol)
	return h
}

// setCutoff derives the near-region radius from the tolerance: the larger
// of the error-bound distance D and the transmission range R_T, in cells.
func (h *hierState) setCutoff(f *Field, tol float64) {
	cell := h.grid.CellSize()
	diam := cell * math.Sqrt2 // w in the error-bound derivation above
	shrink := 1 - math.Pow(1+tol, -1/f.params.Alpha)
	d := diam / shrink // +Inf when 1+tol rounds to 1
	if rt := f.params.RT(); d < rt {
		d = rt
	}
	// Clamp the ring count to the grid's extent before the integer
	// conversion: tiny tolerances yield cutoffs beyond the deployment (or
	// +Inf), which must degrade to fully exact resolution, not overflow
	// the conversion and go negative.
	cols, rows := h.grid.Dims()
	span := float64(max(cols, rows))
	rings := math.Ceil(d / cell)
	if !(rings < span) { // also catches NaN/Inf
		rings = span
	}
	h.nearRings = int32(rings) + 1
	// The farthest two cells sit max(cols, rows)-1 apart in Chebyshev
	// distance; if even they are near, aggregation can never fire.
	h.degenerate = int32(max(cols, rows)-1) <= h.nearRings
}

// reserve presizes the per-slot scratch for up to maxTx transmitters on
// the given channel count. Every occupied cell holds at least one member,
// so maxTx also bounds the cell list and its scatter cursors.
func (h *hierState) reserve(channels, maxTx int) {
	h.cellSeg = growInt32(h.cellSeg, channels+1)
	h.x = growFloat(h.x, maxTx)
	h.y = growFloat(h.y, maxTx)
	h.node = growInt32(h.node, maxTx)
	h.tx = growInt32(h.tx, maxTx)
	h.cellIdx = growInt32(h.cellIdx, maxTx)
	h.cur = growInt32(h.cur, maxTx)
	if cap(h.cells) < maxTx {
		h.cells = make([]hcell, 0, maxTx)
	}
}

// prepare bins the slot's transmitters — already channel-segmented by
// slotSoA — into grid cells: per channel, one counting pass assigns cells
// and accumulates centroid sums, a prefix pass carves the member segments,
// and a scatter pass lays members out cell by cell in transmission order.
// Jammed channels skip binning entirely: nothing on them can decode, so
// their listeners use the flat channel segment instead (see jammedTotal).
func (h *hierState) prepare(f *Field, txs []Tx) {
	channels := f.params.Channels
	h.reserve(channels, len(txs))
	cells := h.cells[:0]
	for c := 0; c < channels; c++ {
		h.cellSeg[c] = int32(len(cells))
		if f.jammed[c] {
			continue
		}
		lo, hi := f.soa.segment(c)
		if lo == hi {
			continue
		}
		h.gen++
		first := len(cells)
		for k := lo; k < hi; k++ {
			n := f.soa.node[k]
			ci := int(h.cellRow[n])*int(h.cols) + int(h.cellCol[n])
			if h.stamp[ci] != h.gen {
				h.stamp[ci] = h.gen
				h.slot[ci] = int32(len(cells))
				cells = append(cells, hcell{col: h.cellCol[n], row: h.cellRow[n]})
			}
			s := h.slot[ci]
			h.cellIdx[k] = s
			cl := &cells[s]
			cl.end++ // member count until the prefix pass below
			cl.cx += f.soa.x[k]
			cl.cy += f.soa.y[k]
		}
		h.cur = growInt32(h.cur, len(cells))
		running := int32(lo)
		for s := first; s < len(cells); s++ {
			cl := &cells[s]
			cnt := cl.end
			cl.start = running
			running += cnt
			cl.end = running
			cl.cx /= float64(cnt)
			cl.cy /= float64(cnt)
			h.cur[s] = cl.start
		}
		for k := lo; k < hi; k++ {
			s := h.cellIdx[k]
			at := h.cur[s]
			h.cur[s] = at + 1
			h.x[at], h.y[at] = f.soa.x[k], f.soa.y[k]
			h.node[at] = f.soa.node[k]
			h.tx[at] = f.soa.tx[k]
		}
	}
	h.cellSeg[channels] = int32(len(cells))
	h.cells = cells
}

// resolveOneHier resolves one listener against the binned slot: cells
// within nearRings (Chebyshev, in cell coordinates) are scanned per
// transmitter with the exact pairwise power; farther cells contribute
// count·P/d(centroid)^α. Cell-coordinate distance over-covers the metric
// cutoff (a cell at Chebyshev distance ≤ nearRings may still be far), which
// only enlarges the exact region and never weakens the error bound. The
// outcome is written to rec.
func (f *Field) resolveOneHier(rec *Reception, rx Rx, txs []Tx) {
	h := f.hier
	cells := h.cells[h.cellSeg[rx.Channel]:h.cellSeg[rx.Channel+1]]
	listener := f.pos[rx.Node]
	lx, ly := listener.X, listener.Y
	lcol, lrow := h.cellCol[rx.Node], h.cellRow[rx.Node]
	self := int32(rx.Node)

	var (
		total   float64
		best    = -1
		bestPow float64
	)
	// α = 3 (the default) gets the same inlined-cube arithmetic as the
	// exact resolver's hot path; other exponents route through powerAt.
	cube := f.alphaInt == 3
	power := f.power
	for ci := range cells {
		cl := &cells[ci]
		dc, dr := cl.col-lcol, cl.row-lrow
		if dc < 0 {
			dc = -dc
		}
		if dr < 0 {
			dr = -dr
		}
		if dr < dc {
			dr = dc
		}
		if dr <= h.nearRings {
			xs := h.x[cl.start:cl.end]
			ys := h.y[cl.start:cl.end]
			nodes := h.node[cl.start:cl.end]
			for k := range xs {
				if nodes[k] == self {
					continue
				}
				dx, dy := lx-xs[k], ly-ys[k]
				d := math.Sqrt(dx*dx + dy*dy)
				var pw float64
				if cube && d > 0 {
					pw = power / (d * d * d)
				} else {
					pw = f.powerAt(d)
				}
				total += pw
				if best == -1 || pw > bestPow {
					best, bestPow = int(h.tx[cl.start+int32(k)]), pw
				}
			}
			continue
		}
		dx, dy := lx-cl.cx, ly-cl.cy
		d := math.Sqrt(dx*dx + dy*dy)
		cnt := float64(cl.end - cl.start)
		if cube {
			total += cnt * (power / (d * d * d))
		} else {
			total += cnt * f.powerAt(d)
		}
	}
	// A far-field-only slot (no near transmitter) cannot decode — every far
	// transmitter is beyond R_T — but the listener must still sense the
	// aggregated power. Report the aggregate as undecodable interference.
	if best == -1 {
		*rec = Reception{From: -1, Interference: total}
		return
	}
	f.decide(rec, txs, total, bestPow, best)
}
