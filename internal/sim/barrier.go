package sim

// This file implements the arrival side of the engine's per-slot
// synchronization for goroutine Program nodes. The gate (roundState.gate)
// packs the slot's expected and observed arrival counts into a single
// atomic word: each arrival increments the low half, and the arrival whose
// snapshot shows observed == expected hands the engine the single wake
// token. Between slots the engine owns all shared state (every live node is
// parked), so it rewrites the expected half with a plain atomic store.
//
// The barrier only decides when the engine wakes, never the order slot
// state is read in (the engine scans pending[] in node order), so it cannot
// affect transcripts. TestBarrierStress pins run-over-run determinism under
// -race at several GOMAXPROCS settings.

// arrive records one barrier arrival and wakes the engine if it completes
// the slot. Both halves come from one atomic snapshot, so exactly one
// arrival completes the slot. The wake send is non-blocking because stale
// arrivals during an abort may race with an undelivered token.
func (rs *roundState) arrive() {
	g := rs.gate.Add(1)
	if uint32(g) == uint32(g>>32) {
		select {
		case rs.wake <- struct{}{}:
		default:
		}
	}
}

// openGate publishes the next slot's expected arrival count. Must only be
// called in the engine's quiescent window (no node can arrive until the
// release channel swap that follows).
func (rs *roundState) openGate(expectCount int) {
	rs.gate.Store(uint64(uint32(expectCount)) << 32)
}
