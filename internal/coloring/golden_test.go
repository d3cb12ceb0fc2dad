package coloring

import (
	"context"
	"fmt"
	"testing"

	"mcnet/internal/fault"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// TestColorerGolden pins the dplus1 and hsb backends' transcripts, events,
// colors and stats across the topology suite, under node crashes, under
// message loss (which can hide a neighbor from discovery but not from the
// trials) and with an undersized n̂ whose TDMA sweep collides.
func TestColorerGolden(t *testing.T) {
	type variant struct {
		name string
		tune func(p *model.Params) *fault.Spec
	}
	variants := []variant{
		{"plain", func(*model.Params) *fault.Spec { return nil }},
		{"crashes", func(*model.Params) *fault.Spec {
			return &fault.Spec{CrashAt: map[int]int{3: 50, 9: 400}}
		}},
		{"nhat-half", func(p *model.Params) *fault.Spec { p.NEstimate /= 2; return nil }},
		{"loss", func(*model.Params) *fault.Spec { return &fault.Spec{LossProb: 0.1} }},
	}
	for _, b := range []Colorer{DPlus1{}, HSB{}} {
		for _, tc := range backendCases() {
			for _, v := range variants {
				p := model.Default(tc.f, len(tc.pos))
				spec := v.tune(&p)
				e := sim.NewEngine(phy.NewField(p, tc.pos), 4)
				if spec != nil {
					e.Faults = fault.NewInjector(*spec, 5, len(tc.pos), p.Channels, 0)
				}
				rec := golden.NewRecorder()
				e.Trace = rec.Trace
				res, st, err := b.Color(context.Background(), e, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", b.Name(), tc.name, v.name, err)
				}
				for _, ev := range e.Events() {
					rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
				}
				golden.Check(t, fmt.Sprintf("%s/%s/%s", b.Name(), tc.name, v.name), rec.Digest(t, struct {
					Res []Result
					St  Stats
				}{res, st}))
			}
		}
	}
}
