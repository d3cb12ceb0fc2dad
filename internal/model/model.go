// Package model defines the SINR model parameters of the paper (Sec. 2) and
// the radii derived from them.
//
// The network uses uniform transmission power P on F non-overlapping
// channels. A transmission from u is decoded at v iff they share a channel,
// v listens, and SINR(u, v) ≥ β with path-loss exponent α > 2 and ambient
// noise N.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the physical and network model parameters for a run.
type Params struct {
	// Alpha is the path-loss exponent; must exceed 2 in the plane.
	Alpha float64
	// Beta is the SINR decoding threshold; must be ≥ 1.
	Beta float64
	// Noise is the ambient noise power N > 0.
	Noise float64
	// Power is the uniform transmission power P > 0.
	Power float64
	// Epsilon is the communication-graph margin: the communication graph
	// links nodes within R_eps = (1-Epsilon)·R_T. Must be in (0, 1).
	Epsilon float64
	// Channels is the number F of non-overlapping channels, ≥ 1.
	Channels int
	// NEstimate is the polynomial estimate of the network size known to all
	// nodes (the paper's n̂). Protocols read ln(NEstimate); they never see
	// the true n.
	NEstimate int
}

// Default returns the parameter set used throughout the experiment suite:
// α = 3, β = 1.5, N = 1, ε = 0.3, and transmission power chosen so that
// R_T = 1 (i.e. P = β·N·R_T^α).
func Default(channels, nEstimate int) Params {
	const (
		alpha = 3.0
		beta  = 1.5
		noise = 1.0
	)
	return Params{
		Alpha:     alpha,
		Beta:      beta,
		Noise:     noise,
		Power:     beta * noise, // R_T = (P/(β·N))^{1/α} = 1
		Epsilon:   0.3,
		Channels:  channels,
		NEstimate: nEstimate,
	}
}

// Validate checks that the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 2:
		return fmt.Errorf("model: alpha = %v must be > 2 in the plane", p.Alpha)
	case p.Beta < 1:
		return fmt.Errorf("model: beta = %v must be ≥ 1", p.Beta)
	case p.Noise <= 0:
		return fmt.Errorf("model: noise = %v must be positive", p.Noise)
	case p.Power <= 0:
		return fmt.Errorf("model: power = %v must be positive", p.Power)
	case p.Epsilon <= 0 || p.Epsilon >= 1:
		return fmt.Errorf("model: epsilon = %v must be in (0, 1)", p.Epsilon)
	case p.Channels < 1:
		return fmt.Errorf("model: channels = %d must be ≥ 1", p.Channels)
	case p.NEstimate < 2:
		return errors.New("model: node-count estimate must be ≥ 2")
	}
	return nil
}

// RT returns the transmission range R_T = (P/(β·N))^{1/α}: the maximum
// distance at which a transmission can be decoded absent interference.
func (p Params) RT() float64 {
	return math.Pow(p.Power/(p.Beta*p.Noise), 1/p.Alpha)
}

// RC returns R_c = (1-c)·R_T for 0 < c < 1 (the paper's R_c notation).
func (p Params) RC(c float64) float64 { return (1 - c) * p.RT() }

// REps returns the communication-graph radius R_ε = (1-ε)·R_T.
func (p Params) REps() float64 { return p.RC(p.Epsilon) }

// REpsHalf returns R_{ε/2} = (1-ε/2)·R_T, the radius within which the
// dominators of adjacent nodes must receive distinct cluster colors.
func (p Params) REpsHalf() float64 { return p.RC(p.Epsilon / 2) }

// SeparationT returns the paper's constant
// t = ((α-2) / (48·β·(α-1)))^{1/α} from Lemma 2 / Sec. 5.1.1: transmitters
// that are r₁-independent are heard by all (t·r₁)-neighbors.
func (p Params) SeparationT() float64 {
	return math.Pow((p.Alpha-2)/(48*p.Beta*(p.Alpha-1)), 1/p.Alpha)
}

// ClusterRadius returns r_c = min{ t/(2t+2) · R_{ε/2}, ε·R_T/4 }, the
// dominating-set radius of Sec. 5.1.1. Clusters of this radius that are
// separated by the cluster coloring can run local protocols without
// inter-cluster interference (Lemma 9).
func (p Params) ClusterRadius() float64 {
	t := p.SeparationT()
	a := t / (2*t + 2) * p.REpsHalf()
	b := p.Epsilon * p.RT() / 4
	return math.Min(a, b)
}

// ClearThreshold returns the paper's T_s = N · min{ (2^α - 1)/2^α,
// (1/2)^α · β } from Definition 4: a reception with sensed interference at
// most T_s guarantees that no other node within 4r of the receiver
// transmitted, for any ruling radius r ≤ R_T/2.
//
// T_s is far below the maximal threshold that still yields that guarantee
// (see ClearInterferenceBound); under exact far-field interference
// accounting, receptions almost never qualify at T_s in extended networks,
// so the implementation uses ClearInterferenceBound instead (deviation D5,
// listed in the mcnet package documentation). T_s is retained for
// reference and for the Lemma 5 analysis checks in tests.
func (p Params) ClearThreshold() float64 {
	a := (math.Pow(2, p.Alpha) - 1) / math.Pow(2, p.Alpha)
	b := math.Pow(0.5, p.Alpha) * p.Beta
	return p.Noise * math.Min(a, b)
}

// ClearInterferenceBound returns the maximal interference threshold for a
// clear reception at ruling radius r that still certifies Definition 4's
// guarantee: if any node within 4r of the receiver (other than the decoded
// sender) transmitted, the sensed interference would be at least
// P/(4r)^α. Sensing strictly less therefore proves no 4r-neighbor
// transmitted.
func (p Params) ClearInterferenceBound(r float64) float64 {
	return p.PowerAtDistance(4 * r)
}

// LogN returns ln of the node-count estimate, the quantity protocols scale
// their round counts by.
func (p Params) LogN() float64 { return math.Log(float64(p.NEstimate)) }

// PowerAtDistance returns the received power P/d^α of a transmission heard
// at distance d. Distance zero yields +Inf.
func (p Params) PowerAtDistance(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return p.Power / math.Pow(d, p.Alpha)
}

// WithChannels returns a copy of p using the given channel count.
func (p Params) WithChannels(f int) Params {
	p.Channels = f
	return p
}
