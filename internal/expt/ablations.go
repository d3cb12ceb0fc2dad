package expt

import (
	"fmt"

	"mcnet/internal/model"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// A1BackoffAblation removes the dominator's backoff signal (Sec. 6's
// Bounded Contention mechanism, Definition 17/Lemma 19) and measures what
// happens to the follower phase: without it, transmission probabilities
// double unchecked and throughput collapses once contention exceeds the
// channel budget.
func A1BackoffAblation(o Options) (*stats.Table, error) {
	n := 160
	if o.Quick {
		n = 64
	}
	const f = 4
	variants := []bool{false, true}
	rows, err := aggSweep(o, len(variants), func(vi, s int) aggCase {
		c := crowdCase(f, n, uint64(s+51), uint64(2000+s))
		c.cfg.DisableBackoff = variants[vi]
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A1: backoff ablation (crowd n=%d, F=%d)", n, f),
		"variant", "ack_slots", "followers_acked", "exact")
	for vi, r := range rows {
		name := "with backoff (paper)"
		if variants[vi] {
			name = "no backoff (ablated)"
		}
		t.AddRow(name, stats.F1(r.ack), stats.Pct(r.acked, r.followers), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; the backoff signal is what keeps Bounded Contention (Lemma 19)", o.seeds())
	return t, nil
}

// A2TDMAAblation sets the TDMA period to 1 (all clusters share one color
// slot) on a multi-cluster field: the cluster separation of Lemma 9
// disappears and correctness degrades.
func A2TDMAAblation(o Options) (*stats.Table, error) {
	n := 80
	if o.Quick {
		n = 48
	}
	phis := []int{24, 1}
	rows, err := aggSweep(o, len(phis), func(pi, s int) aggCase {
		p := model.Default(4, 2*n)
		pos := topology.UniformDegree(topology.LayoutRand(uint64(2100*n+s)), n, p.REps(), 14)
		return aggCase{p: p, pos: pos, cfg: fieldSizing(phis[pi]).config(p), seed: uint64(2200 + s)}
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A2: TDMA ablation (sparse field n=%d, F=4)", n),
		"variant", "informed", "exact")
	for pi, r := range rows {
		name := fmt.Sprintf("PhiMax=%d (TDMA on)", phis[pi])
		if phis[pi] == 1 {
			name = "PhiMax=1 (TDMA off)"
		}
		t.AddRow(name, stats.Pct(r.informed, r.nodes), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; without cluster colors, concurrent clusters collide (Lemma 9 lost)", o.seeds())
	return t, nil
}

// A3ChannelSpreadAblation forces f_v = 1 (C1 huge): the cluster never
// spreads followers over channels, so extra channels buy nothing — the
// mechanism behind the Δ/F term is the spread itself.
func A3ChannelSpreadAblation(o Options) (*stats.Table, error) {
	n := 160
	if o.Quick {
		n = 64
	}
	const f = 8
	c1s := []float64{1.0, 1e9}
	rows, err := aggSweep(o, len(c1s), func(ci, s int) aggCase {
		c := crowdCase(f, n, uint64(s+61), uint64(2300+s))
		c.cfg.C1 = c1s[ci]
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A3: channel-spread ablation (crowd n=%d, F=%d)", n, f),
		"variant", "ack_slots", "exact")
	for ci, r := range rows {
		name := "f_v adaptive (paper)"
		if c1s[ci] > 100 {
			name = "f_v = 1 (ablated)"
		}
		t.AddRow(name, stats.F1(r.ack), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; with f_v forced to 1, the channels sit idle and the Δ/F speedup vanishes", o.seeds())
	return t, nil
}
