// Package sensornet models the participants' sensing devices (§2, §2.4,
// §4.1): location, inherent inaccuracy, trustworthiness, lifetime, energy
// and privacy state, and the cost a sensor announces each time slot:
//
//	c_s(E_s, H_s, l_s) = c^e_s(E_s) + c^p_s(p_s(H_s, l_s))   (Eq. 8)
//
// with the fixed / linear energy cost models and the privacy-loss model of
// the evaluation (Eqs. 14-15).
package sensornet

import (
	"fmt"

	"repro/internal/geo"
)

// PrivacyLevel is a privacy sensitivity level (PSL) of a sensor owner.
// The evaluation maps {Zero, Low, Moderate, High, VeryHigh} to
// {0, 0.25, 0.5, 0.75, 1}.
type PrivacyLevel float64

// The five PSLs of §4.1.
const (
	PrivacyZero     PrivacyLevel = 0
	PrivacyLow      PrivacyLevel = 0.25
	PrivacyModerate PrivacyLevel = 0.5
	PrivacyHigh     PrivacyLevel = 0.75
	PrivacyVeryHigh PrivacyLevel = 1
)

// AllPrivacyLevels lists the five PSLs in increasing order.
var AllPrivacyLevels = []PrivacyLevel{
	PrivacyZero, PrivacyLow, PrivacyModerate, PrivacyHigh, PrivacyVeryHigh,
}

// String implements fmt.Stringer.
func (p PrivacyLevel) String() string {
	switch p {
	case PrivacyZero:
		return "Zero"
	case PrivacyLow:
		return "Low"
	case PrivacyModerate:
		return "Moderate"
	case PrivacyHigh:
		return "High"
	case PrivacyVeryHigh:
		return "VeryHigh"
	default:
		return fmt.Sprintf("PSL(%g)", float64(p))
	}
}

// EnergyCostModel computes c^e_s(E_s), the energy component of a sensor's
// price, from the remaining energy fraction E_s in [0,1].
type EnergyCostModel interface {
	EnergyCost(basePrice, remainingEnergy float64) float64
}

// FixedEnergyCost is the evaluation's fixed model: c^e_s(E_s) = C_s.
type FixedEnergyCost struct{}

// EnergyCost implements EnergyCostModel.
func (FixedEnergyCost) EnergyCost(basePrice, _ float64) float64 { return basePrice }

// LinearEnergyCost is the evaluation's linear model:
// c^e_s(E_s) = C_s * (1 + beta*(1 - E_s)); the price grows as the battery
// drains.
type LinearEnergyCost struct {
	Beta float64
}

// EnergyCost implements EnergyCostModel.
func (m LinearEnergyCost) EnergyCost(basePrice, remainingEnergy float64) float64 {
	e := remainingEnergy
	if e < 0 {
		e = 0
	}
	if e > 1 {
		e = 1
	}
	return basePrice * (1 + m.Beta*(1-e))
}

// Sensor is one participant's sensing device. The zero value is not
// usable; construct with NewSensor.
type Sensor struct {
	ID         int
	Pos        geo.Point
	Inaccuracy float64 // gamma_s in [0,1], drawn from [0,0.2] in §4.1
	Trust      float64 // tau_s in [0,1]; (1-gamma_s)*tau_s <= 1 bounds the point footprints (query.Footprinted)
	BasePrice  float64 // C_s, 10 in all experiments
	Privacy    PrivacyLevel
	Energy     EnergyCostModel

	// Lifetime is the maximum number of readings the sensor can provide
	// (§4.1); once exhausted the sensor is unavailable.
	Lifetime int
	// PrivacyWindow is w of Eq. 14, the length of the reporting history the
	// privacy-loss computation considers.
	PrivacyWindow int

	readings int   // measurements taken so far
	history  []int // slots at which a measurement was reported (ascending)
}

// NewSensor constructs a sensor with the experiment defaults: base price
// 10, fixed energy cost, zero privacy sensitivity, full trust, privacy
// window 10 and lifetime sufficient for the 50-slot simulation.
func NewSensor(id int, pos geo.Point) *Sensor {
	return &Sensor{
		ID:            id,
		Pos:           pos,
		Inaccuracy:    0,
		Trust:         1,
		BasePrice:     10,
		Privacy:       PrivacyZero,
		Energy:        FixedEnergyCost{},
		Lifetime:      50,
		PrivacyWindow: 10,
	}
}

// Alive reports whether the sensor can still provide measurements.
func (s *Sensor) Alive() bool { return s.readings < s.Lifetime }

// RemainingEnergy returns E_s in [0,1]: 1 minus the fraction of lifetime
// consumed.
func (s *Sensor) RemainingEnergy() float64 {
	if s.Lifetime <= 0 {
		return 0
	}
	e := 1 - float64(s.readings)/float64(s.Lifetime)
	if e < 0 {
		return 0
	}
	return e
}

// PrivacyLoss computes p_s(H_s, l_s) of Eq. 14 at slot now: a weighted
// average of the time distances between past reporting slots and now, with
// more weight on recent reports, normalized by w(w+1)/2. With an empty
// history the loss is w / (w(w+1)/2) = 2/(w+1), the baseline exposure of
// announcing the current location.
func (s *Sensor) PrivacyLoss(now int) float64 {
	w := s.PrivacyWindow
	if w <= 0 {
		return 0
	}
	sum := float64(w)
	for _, t := range s.history {
		age := now - t
		if age < 0 {
			age = 0
		}
		if age >= w {
			continue // outside the window: weight would be non-positive
		}
		sum += float64(w - age)
	}
	return sum / (float64(w) * float64(w+1) / 2)
}

// PrivacyCost computes c^p_s of Eq. 15: PSL_s * p_s * C_s.
func (s *Sensor) PrivacyCost(now int) float64 {
	return float64(s.Privacy) * s.PrivacyLoss(now) * s.BasePrice
}

// Cost returns the total price (Eq. 8) the sensor announces at slot now:
// energy cost plus privacy cost.
func (s *Sensor) Cost(now int) float64 {
	return s.Energy.EnergyCost(s.BasePrice, s.RemainingEnergy()) + s.PrivacyCost(now)
}

// RecordReading accounts for a measurement taken at slot now: consumes one
// lifetime unit and appends to the privacy history.
func (s *Sensor) RecordReading(now int) {
	s.readings++
	s.history = append(s.history, now)
	// Trim history that can no longer influence the privacy loss so the
	// slice stays bounded over long simulations.
	cut := 0
	for cut < len(s.history) && now-s.history[cut] >= s.PrivacyWindow {
		cut++
	}
	if cut > 0 {
		s.history = append(s.history[:0], s.history[cut:]...)
	}
}

// Quality computes theta_q(s, l_q) of Eq. 4: the quality of a reading from
// this sensor for a query at location lq, given the maximum useful
// distance dmax:
//
//	theta = (1 - gamma_s) * (1 - |l_s - l_q| / dmax) * tau_s   if dist <= dmax
//	theta = 0                                                  otherwise.
func (s *Sensor) Quality(lq geo.Point, dmax float64) float64 {
	d := s.Pos.Dist(lq)
	if d > dmax {
		return 0
	}
	return (1 - s.Inaccuracy) * (1 - d/dmax) * s.Trust
}
