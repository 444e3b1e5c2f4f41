// Package mobility implements the sensor movement models of §4.2:
//
//   - RandomWaypoint: the paper's RWM — each slot a sensor picks a random
//     speed in [0, maxSpeed] and a random axis-aligned direction (up, down,
//     left, right), bounded by the region.
//   - TripSynthesizer: a substitute for the RNC Nokia-campaign traces. Real
//     traces are unavailable, so we synthesize trip-based human movement
//     with a configurable attraction towards the working subregion
//     ("hotspot"), calibrated so that the per-slot population of the
//     working subregion matches the paper's reported ≈120 of 635 sensors.
//   - Stationary: fixed sensors (the Intel-lab deployment).
//
// All models are deterministic given their rng stream.
package mobility

import (
	"repro/internal/geo"
	"repro/internal/rng"
)

// Model produces per-slot sensor positions. Implementations advance one
// time slot per Step call and return one position per sensor.
type Model interface {
	// N returns the number of sensors.
	N() int
	// Step advances the model one time slot and returns current positions.
	// The returned slice is the model's own: read-only for the caller and
	// valid until the next Step, which moves the positions in place.
	Step() []geo.Point
}

// RandomWaypoint is the paper's RWM: axis-aligned moves with per-sensor
// maximum speed 4 or 5, bounded to Region.
type RandomWaypoint struct {
	Region geo.Rect
	pos    []geo.Point
	maxSpd []float64
	rnd    *rng.Stream
}

// NewRandomWaypoint spreads n sensors uniformly in region; each sensor's
// max speed is chosen uniformly from maxSpeeds (the paper uses {4, 5}).
func NewRandomWaypoint(n int, region geo.Rect, maxSpeeds []float64, rnd *rng.Stream) *RandomWaypoint {
	if len(maxSpeeds) == 0 {
		maxSpeeds = []float64{4, 5}
	}
	m := &RandomWaypoint{
		Region: region,
		pos:    make([]geo.Point, n),
		maxSpd: make([]float64, n),
		rnd:    rnd,
	}
	for i := 0; i < n; i++ {
		m.pos[i] = geo.Pt(rnd.Uniform(region.MinX, region.MaxX), rnd.Uniform(region.MinY, region.MaxY))
		m.maxSpd[i] = maxSpeeds[rnd.Intn(len(maxSpeeds))]
	}
	return m
}

// N implements Model.
func (m *RandomWaypoint) N() int { return len(m.pos) }

// Step implements Model.
func (m *RandomWaypoint) Step() []geo.Point {
	for i := range m.pos {
		speed := m.rnd.Uniform(0, m.maxSpd[i])
		var d geo.Point
		switch m.rnd.Intn(4) {
		case 0:
			d = geo.Pt(0, speed) // up
		case 1:
			d = geo.Pt(0, -speed) // down
		case 2:
			d = geo.Pt(-speed, 0) // left
		default:
			d = geo.Pt(speed, 0) // right
		}
		m.pos[i] = m.Region.Clamp(m.pos[i].Add(d))
	}
	return m.pos
}

// TripSynthesizer emulates trip-based human mobility over a large region
// with a hotspot (the working subregion): each sensor repeatedly picks a
// destination — inside the hotspot with probability HotspotBias, anywhere
// otherwise — and walks towards it at its trip speed, pausing between trips.
type TripSynthesizer struct {
	Region  geo.Rect
	Hotspot geo.Rect
	// HotspotBias is the probability that a new trip targets the hotspot.
	HotspotBias float64
	// LocalBias is the probability that a non-hotspot trip stays near the
	// sensor's home; home-based movement counteracts the random-waypoint
	// center-density artifact so the background density stays uniform.
	LocalBias float64
	// LocalRadius is the wander radius around home for local trips.
	LocalRadius float64
	// SpeedMin/SpeedMax bound per-trip speeds (distance units per slot).
	SpeedMin, SpeedMax float64
	// PauseMax is the maximum number of slots a sensor rests between trips.
	PauseMax int

	pos   []geo.Point
	home  []geo.Point
	dest  []geo.Point
	speed []float64
	pause []int
	rnd   *rng.Stream
}

// TripConfig carries the tunables of the synthesizer; zero values select
// the defaults calibrated for the paper's RNC statistics.
type TripConfig struct {
	HotspotBias        float64
	LocalBias          float64
	LocalRadius        float64
	SpeedMin, SpeedMax float64
	PauseMax           int
}

// NewTripSynthesizer creates n sensors in region with the given hotspot.
//
// The defaults (hotspot bias 0.02, local bias 0.9, wander radius 25,
// speeds 2..8, pause up to 3) were calibrated so that with the paper's RNC
// geometry (237x300 region, 100x100 working subregion, 635 sensors) the
// average per-slot hotspot population is close to the reported ≈120
// sensors. See TestTripSynthesizerCalibration.
func NewTripSynthesizer(n int, region, hotspot geo.Rect, cfg TripConfig, rnd *rng.Stream) *TripSynthesizer {
	if cfg.HotspotBias == 0 {
		cfg.HotspotBias = 0.02
	}
	if cfg.LocalBias == 0 {
		cfg.LocalBias = 0.9
	}
	if cfg.LocalRadius == 0 {
		cfg.LocalRadius = 25
	}
	if cfg.SpeedMax == 0 {
		cfg.SpeedMin, cfg.SpeedMax = 2, 8
	}
	if cfg.PauseMax == 0 {
		cfg.PauseMax = 3
	}
	m := &TripSynthesizer{
		Region:      region,
		Hotspot:     hotspot,
		HotspotBias: cfg.HotspotBias,
		LocalBias:   cfg.LocalBias,
		LocalRadius: cfg.LocalRadius,
		SpeedMin:    cfg.SpeedMin,
		SpeedMax:    cfg.SpeedMax,
		PauseMax:    cfg.PauseMax,
		pos:         make([]geo.Point, n),
		home:        make([]geo.Point, n),
		dest:        make([]geo.Point, n),
		speed:       make([]float64, n),
		pause:       make([]int, n),
		rnd:         rnd,
	}
	for i := 0; i < n; i++ {
		m.home[i] = m.randomPointIn(region)
		m.pos[i] = m.home[i]
		m.newTrip(i)
	}
	return m
}

func (m *TripSynthesizer) randomPointIn(r geo.Rect) geo.Point {
	return geo.Pt(m.rnd.Uniform(r.MinX, r.MaxX), m.rnd.Uniform(r.MinY, r.MaxY))
}

func (m *TripSynthesizer) newTrip(i int) {
	switch {
	case m.rnd.Float64() < m.HotspotBias:
		m.dest[i] = m.randomPointIn(m.Hotspot)
	case m.rnd.Float64() < m.LocalBias:
		// Wander near home; keeps the background density uniform.
		m.dest[i] = m.Region.Clamp(m.home[i].Add(geo.Pt(
			m.rnd.Norm(0, m.LocalRadius), m.rnd.Norm(0, m.LocalRadius))))
	default:
		m.dest[i] = m.randomPointIn(m.Region)
	}
	m.speed[i] = m.rnd.Uniform(m.SpeedMin, m.SpeedMax)
	m.pause[i] = m.rnd.Intn(m.PauseMax + 1)
}

// N implements Model.
func (m *TripSynthesizer) N() int { return len(m.pos) }

// Step implements Model.
func (m *TripSynthesizer) Step() []geo.Point {
	for i := range m.pos {
		d := m.pos[i].Dist(m.dest[i])
		switch {
		case d <= m.speed[i]:
			// Arrive, then rest before the next trip.
			m.pos[i] = m.dest[i]
			if m.pause[i] > 0 {
				m.pause[i]--
			} else {
				m.newTrip(i)
			}
		default:
			dir := m.dest[i].Sub(m.pos[i]).Scale(m.speed[i] / d)
			m.pos[i] = m.Region.Clamp(m.pos[i].Add(dir))
		}
	}
	return m.pos
}

// Stationary keeps sensors at fixed positions (Intel-lab deployment).
type Stationary struct {
	Positions []geo.Point
}

// NewStationary fixes the given positions.
func NewStationary(positions []geo.Point) *Stationary {
	return &Stationary{Positions: positions}
}

// N implements Model.
func (m *Stationary) N() int { return len(m.Positions) }

// Step implements Model.
func (m *Stationary) Step() []geo.Point { return m.Positions }
