package expt

import (
	"context"
	"fmt"

	"mcnet/internal/core"
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
	type a1Run struct {
		ack                            float64
		acked, followers, exact, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(variants)*seeds, func(ctx context.Context, i int) (a1Run, error) {
		disable, s := variants[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+51))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		cfg.DisableBackoff = disable
		m, err := aggregate(ctx, pos, p, cfg, values, uint64(2000+s))
		if err != nil {
			return a1Run{}, err
		}
		return a1Run{float64(m.AckSlots), m.FollowersAcked, m.Followers, m.Exact, n}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A1: backoff ablation (crowd n=%d, F=%d)", n, f),
		"variant", "ack_slots", "followers_acked", "exact")
	for vi, disable := range variants {
		var acks []float64
		ackedN, followers, exact, total := 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[vi*seeds+s]
			acks = append(acks, r.ack)
			ackedN += r.acked
			followers += r.followers
			exact += r.exact
			total += r.total
		}
		name := "with backoff (paper)"
		if disable {
			name = "no backoff (ablated)"
		}
		t.AddRow(name, stats.F1(stats.Median(acks)), pct(ackedN, followers), pct(exact, total))
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
	type a2Run struct {
		informed, exact, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(phis)*seeds, func(ctx context.Context, i int) (a2Run, error) {
		phi, s := phis[i/seeds], i%seeds
		p := model.Default(4, 2*n)
		rnd := newRand(uint64(2100*n + s))
		pos := topology.UniformDegree(rnd, n, p.REps(), 14)
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = 32
		cfg.PhiMax = phi
		cfg.HopBound = 14
		m, err := aggregate(ctx, pos, p, cfg, values, uint64(2200+s))
		if err != nil {
			return a2Run{}, err
		}
		return a2Run{m.Informed, m.Exact, n}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A2: TDMA ablation (sparse field n=%d, F=4)", n),
		"variant", "informed", "exact")
	for pi, phi := range phis {
		informed, exact, total := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[pi*seeds+s]
			informed += r.informed
			exact += r.exact
			total += r.total
		}
		name := fmt.Sprintf("PhiMax=%d (TDMA on)", phi)
		if phi == 1 {
			name = "PhiMax=1 (TDMA off)"
		}
		t.AddRow(name, pct(informed, total), pct(exact, total))
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
	type a3Run struct {
		ack          float64
		exact, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(c1s)*seeds, func(ctx context.Context, i int) (a3Run, error) {
		c1, s := c1s[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+61))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		cfg.C1 = c1
		m, err := aggregate(ctx, pos, p, cfg, values, uint64(2300+s))
		if err != nil {
			return a3Run{}, err
		}
		return a3Run{float64(m.AckSlots), m.Exact, n}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("A3: channel-spread ablation (crowd n=%d, F=%d)", n, f),
		"variant", "ack_slots", "exact")
	for ci, c1 := range c1s {
		var acks []float64
		exact, total := 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[ci*seeds+s]
			acks = append(acks, r.ack)
			exact += r.exact
			total += r.total
		}
		name := "f_v adaptive (paper)"
		if c1 > 100 {
			name = "f_v = 1 (ablated)"
		}
		t.AddRow(name, stats.F1(stats.Median(acks)), pct(exact, total))
	}
	t.AddNote("seeds=%d; with f_v forced to 1, the channels sit idle and the Δ/F speedup vanishes", o.seeds())
	return t, nil
}
