package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	p := Default(8, 256)
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if got := p.RT(); math.Abs(got-1) > 1e-12 {
		t.Errorf("default RT = %v, want 1", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := Default(4, 100)
	mut := []func(*Params){
		func(p *Params) { p.Alpha = 2 },
		func(p *Params) { p.Alpha = 1.5 },
		func(p *Params) { p.Beta = 0.5 },
		func(p *Params) { p.Noise = 0 },
		func(p *Params) { p.Power = -1 },
		func(p *Params) { p.Epsilon = 0 },
		func(p *Params) { p.Epsilon = 1 },
		func(p *Params) { p.Channels = 0 },
		func(p *Params) { p.NEstimate = 1 },
	}
	for i, m := range mut {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestRadiiOrdering(t *testing.T) {
	p := Default(4, 100)
	rt := p.RT()
	if !(p.REps() < p.REpsHalf() && p.REpsHalf() < rt) {
		t.Errorf("want REps < REpsHalf < RT, got %v, %v, %v",
			p.REps(), p.REpsHalf(), rt)
	}
	if rc := p.ClusterRadius(); !(rc > 0 && rc < p.REps()) {
		t.Errorf("cluster radius %v out of range (0, REps=%v)", rc, p.REps())
	}
}

func TestSeparationT(t *testing.T) {
	p := Default(4, 100)
	// α=3, β=1.5: t = (1/(48·1.5·2))^{1/3} = (1/144)^{1/3}.
	want := math.Pow(1.0/144, 1.0/3)
	if got := p.SeparationT(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SeparationT = %v, want %v", got, want)
	}
	if got := p.SeparationT(); got <= 0 || got >= 1 {
		t.Errorf("SeparationT = %v outside (0,1)", got)
	}
}

func TestClearThreshold(t *testing.T) {
	p := Default(4, 100)
	// α=3: (2³-1)/2³ = 7/8; (1/2)³·β = 1.5/8. min = 1.5/8 = 0.1875.
	want := 0.1875
	if got := p.ClearThreshold(); math.Abs(got-want) > 1e-12 {
		t.Errorf("ClearThreshold = %v, want %v", got, want)
	}
	if p.ClearThreshold() >= p.Noise {
		t.Error("clear threshold should be below noise floor for these params")
	}
}

func TestDistancePowerRoundTrip(t *testing.T) {
	// Inverting the path-loss law, d = (P/prx)^{1/α}, recovers the distance.
	p := Default(4, 100)
	f := func(dRaw uint16) bool {
		d := 0.01 + float64(dRaw)/1000 // (0.01, 65.5)
		back := math.Pow(p.Power/p.PowerAtDistance(d), 1/p.Alpha)
		return math.Abs(back-d) < 1e-9*d+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(p.PowerAtDistance(0), 1) {
		t.Error("zero distance should give infinite power")
	}
}

func TestRTThresholdConsistency(t *testing.T) {
	// At exactly RT the SINR against pure noise equals β.
	p := Default(4, 100)
	rt := p.RT()
	sinr := p.PowerAtDistance(rt) / p.Noise
	if math.Abs(sinr-p.Beta) > 1e-9 {
		t.Errorf("SINR at RT = %v, want β = %v", sinr, p.Beta)
	}
}

func TestWithChannels(t *testing.T) {
	p := Default(4, 100)
	q := p.WithChannels(16)
	if q.Channels != 16 || p.Channels != 4 {
		t.Error("WithChannels should copy, not mutate")
	}
}

func TestLogN(t *testing.T) {
	p := Default(4, 100)
	if got := p.LogN(); math.Abs(got-math.Log(100)) > 1e-12 {
		t.Errorf("LogN = %v", got)
	}
}
