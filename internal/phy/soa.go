package phy

// This file lays a slot's transmitters out in struct-of-arrays form: one
// contiguous x/y position, node-id and tx-index slice per Resolve call,
// segmented by channel via a stable counting sort. The per-listener scan
// loops then stream through flat float64 slices — no Tx struct loads, no
// position-table indirection — which is what makes the O(|rxs|·|txs|) exact
// scan cache- and prefetch-friendly.
//
// All slices are per-Field scratch reused across slots; nothing allocates
// once they have grown to the slot size (Field.Reserve presizes them).

type slotSoA struct {
	// off[c]..off[c+1] is channel c's segment in the parallel slices below.
	off []int32
	// cursor is the scatter cursor, one per channel.
	cursor []int32

	x, y []float64 // transmitter positions, channel-segmented, tx order
	node []int32   // transmitter node ids
	tx   []int32   // index of the transmission in the slot's txs slice
}

// reserve presizes the layout for slots of up to maxTx transmitters.
func (s *slotSoA) reserve(channels, maxTx int) {
	s.off = grow(s.off, channels+1)
	s.cursor = grow(s.cursor, channels)
	s.x = grow(s.x, maxTx)
	s.y = grow(s.y, maxTx)
	s.node = grow(s.node, maxTx)
	s.tx = grow(s.tx, maxTx)
}

// prepare builds the channel-segmented layout for one slot. Transmissions
// on out-of-range channels panic (they indicate a protocol bug), before any
// worker fan-out. The sort is stable: within a channel, transmitters keep
// their txs order, which is what keeps the summation order — and therefore
// the transcripts — bit-identical to the historical resolver.
func (s *slotSoA) prepare(f *Field, txs []Tx) {
	channels := f.params.Channels
	s.reserve(channels, len(txs))
	for c := 0; c <= channels; c++ {
		s.off[c] = 0
	}
	for i := range txs {
		c := txs[i].Channel
		if c < 0 || c >= channels {
			panic("phy: transmission on invalid channel")
		}
		s.off[c+1]++
	}
	for c := 0; c < channels; c++ {
		s.off[c+1] += s.off[c]
		s.cursor[c] = s.off[c]
	}
	for i := range txs {
		t := &txs[i]
		k := s.cursor[t.Channel]
		s.cursor[t.Channel] = k + 1
		p := f.pos[t.Node]
		s.x[k], s.y[k] = p.X, p.Y
		s.node[k] = int32(t.Node)
		s.tx[k] = int32(i)
	}
}

// segment returns channel c's range in the parallel slices.
func (s *slotSoA) segment(c int) (lo, hi int) {
	return int(s.off[c]), int(s.off[c+1])
}

// grow returns s resliced to n elements, reallocated when its capacity is
// short; the contents are scratch.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
