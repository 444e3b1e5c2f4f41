package sensornet

import (
	"repro/internal/geo"
	"repro/internal/mobility"
)

// Fleet couples a set of sensors with a mobility model and exposes the
// per-slot view the aggregator works with: which sensors are available in
// the working region, where they are, and what they charge. "At the
// beginning of each time slot [sensors] announce their location and price
// of providing a measurement at that location" (§2.1).
type Fleet struct {
	Sensors []*Sensor
	Model   mobility.Model
	// WorkingRegion bounds the aggregator's attention: only sensors inside
	// it are offered to queries (§4.2's "working region" / hotspot).
	WorkingRegion geo.Rect

	slot int
	// offers are Step's two result buffers, used in turn.
	offers [2][]Offer
}

// NewFleet builds a fleet; len(sensors) must equal model.N().
func NewFleet(sensors []*Sensor, model mobility.Model, working geo.Rect) *Fleet {
	if len(sensors) != model.N() {
		panic("sensornet: sensor count does not match mobility model")
	}
	return &Fleet{Sensors: sensors, Model: model, WorkingRegion: working, slot: -1}
}

// Offer is one sensor's per-slot announcement: identity, position, price.
type Offer struct {
	Sensor *Sensor
	Cost   float64
}

// Slot returns the current slot number (-1 before the first Step).
func (f *Fleet) Slot() int { return f.slot }

// Step advances the fleet one time slot: moves every sensor and returns
// the offers of the alive sensors currently inside the working region.
// The returned slice is the fleet's own and valid until the next Step: a
// caller that wants a slot's offers for longer copies them. (Step fills
// two buffers in turn, so a slice held one Step too long reads stale
// offers rather than the new slot's half-written ones.)
func (f *Fleet) Step() []Offer {
	f.slot++
	positions := f.Model.Step()
	offers := f.offers[f.slot&1][:0]
	for i, s := range f.Sensors {
		s.Pos = positions[i]
		if !s.Alive() || !f.WorkingRegion.Contains(s.Pos) {
			continue
		}
		offers = append(offers, Offer{Sensor: s, Cost: s.Cost(f.slot)})
	}
	f.offers[f.slot&1] = offers
	return offers
}

// Commit records that the given sensors provided a measurement in the
// current slot, consuming lifetime and growing privacy histories.
func (f *Fleet) Commit(selected []*Sensor) {
	for _, s := range selected {
		s.RecordReading(f.slot)
	}
}
