// Package datasets assembles the experiment worlds of §4.2. Where the
// paper uses unavailable datasets, this package builds the synthetic
// equivalents documented in DESIGN.md:
//
//   - RWM: the paper's random-waypoint world — 200 sensors on an 80x80
//     grid region with a central 50x50 working subregion, max speeds 4/5,
//     dmax 5.
//   - RNC: substitute for the Nokia Lausanne campaign — 635 sensors on a
//     237x300 grid with a 100x100 working subregion, trip-based mobility
//     calibrated to ≈120 sensors per slot in the working subregion,
//     dmax 10.
//   - IntelLab: substitute for the Intel Lab deployment — a 20x15 grid
//     carrying a spatially correlated GP-sampled field, a GP model learned
//     from a fraction of the readings, and 30 imaginary mobile sensors
//     that report the field value of the grid cell they are in (§4.6).
//   - Ozone histories: per-location diurnal series substituting the Zurich
//     OpenSense ozone trace (§4.5).
package datasets

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/mobility"
	"repro/internal/regression"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// SensorConfig controls the per-sensor parameters of §4.1.
type SensorConfig struct {
	// Lifetime is the maximum number of readings (0 = 50, the simulation
	// period, i.e. effectively unconstrained).
	Lifetime int
	// RandomPSL assigns each sensor a random privacy sensitivity level
	// from {Zero, Low, Moderate, High, VeryHigh}; otherwise PSL is Zero.
	RandomPSL bool
	// LinearEnergy uses the linear energy cost model with beta drawn
	// uniformly from [0,4]; otherwise the fixed cost model.
	LinearEnergy bool
	// TrustMin/TrustMax bound the uniform trust distribution; both zero
	// means fully trusted sensors (the default of §4.1). Both must lie in
	// [0, 1] with TrustMin <= TrustMax, or building a world panics: the
	// point queries' relevance footprints rely on trust at most 1 (see
	// query.Footprinted).
	TrustMin, TrustMax float64
}

// checkTrust panics unless the trust bounds are a range within [0, 1].
func (c SensorConfig) checkTrust() {
	if !(c.TrustMin >= 0 && c.TrustMin <= 1) {
		panic(fmt.Sprintf("datasets: SensorConfig.TrustMin = %v, want a value in [0, 1]", c.TrustMin))
	}
	if !(c.TrustMax >= 0 && c.TrustMax <= 1) {
		panic(fmt.Sprintf("datasets: SensorConfig.TrustMax = %v, want a value in [0, 1]", c.TrustMax))
	}
	if c.TrustMin > c.TrustMax {
		panic(fmt.Sprintf("datasets: SensorConfig.TrustMin = %v exceeds TrustMax = %v", c.TrustMin, c.TrustMax))
	}
}

func (c SensorConfig) lifetime() int {
	if c.Lifetime <= 0 {
		return 50
	}
	return c.Lifetime
}

// World is a ready-to-simulate environment.
type World struct {
	Name string
	// Region is the full movement region; Working the aggregator's
	// region of interest.
	Region  geo.Rect
	Working geo.Rect
	// Grid discretizes the region for query locations and coverage.
	Grid geo.Grid
	// DMax is the maximum sensing distance of Eq. 4 for this world.
	DMax float64
	// Fleet owns the sensors and their mobility.
	Fleet *sensornet.Fleet
	// Phenomenon is the (optional) spatial field sensors report.
	Phenomenon *field.GPField
	// GPModel is the (optional) Gaussian-process model learned from the
	// phenomenon, used by region monitoring valuations.
	GPModel *gp.GP

	seed      int64
	histCache map[geo.Point]*regression.Series
}

// applySensorConfig draws per-sensor parameters deterministically. It
// panics on trust bounds outside [0, 1] (SensorConfig.TrustMin).
func applySensorConfig(sensors []*sensornet.Sensor, cfg SensorConfig, rnd *rng.Stream) {
	cfg.checkTrust()
	for _, s := range sensors {
		s.Inaccuracy = rnd.Uniform(0, 0.2)
		s.Lifetime = cfg.lifetime()
		if cfg.RandomPSL {
			s.Privacy = sensornet.AllPrivacyLevels[rnd.Intn(len(sensornet.AllPrivacyLevels))]
		}
		if cfg.LinearEnergy {
			s.Energy = sensornet.LinearEnergyCost{Beta: rnd.Uniform(0, 4)}
		}
		if cfg.TrustMax > 0 {
			s.Trust = rnd.Uniform(cfg.TrustMin, cfg.TrustMax)
		}
	}
}

// NewRWM builds the random-waypoint world of §4.2 with n sensors
// (the experiments use 200).
func NewRWM(seed int64, n int, cfg SensorConfig) *World {
	if n <= 0 {
		n = 200
	}
	region := geo.NewRect(0, 0, 80, 80)
	working := geo.NewRect(15, 15, 65, 65)
	rnd := rng.New(seed, "rwm")
	model := mobility.NewRandomWaypoint(n, region, []float64{4, 5}, rnd.Derive("mobility"))
	sensors := make([]*sensornet.Sensor, n)
	for i := range sensors {
		sensors[i] = sensornet.NewSensor(i, geo.Pt(0, 0))
	}
	applySensorConfig(sensors, cfg, rnd.Derive("sensors"))
	return &World{
		Name:    "RWM",
		Region:  region,
		Working: working,
		Grid:    geo.NewUnitGrid(80, 80),
		DMax:    5,
		Fleet:   sensornet.NewFleet(sensors, model, working),
		seed:    seed,
	}
}

// NewRNC builds the RNC-like world: 635 sensors on a 237x300 grid with a
// central 100x100 working subregion averaging ≈120 sensors per slot.
func NewRNC(seed int64, cfg SensorConfig) *World {
	const n = 635
	region := geo.NewRect(0, 0, 237, 300)
	working := geo.NewRect(70, 100, 170, 200)
	rnd := rng.New(seed, "rnc")
	model := mobility.NewTripSynthesizer(n, region, working, mobility.TripConfig{}, rnd.Derive("mobility"))
	sensors := make([]*sensornet.Sensor, n)
	for i := range sensors {
		sensors[i] = sensornet.NewSensor(i, geo.Pt(0, 0))
	}
	applySensorConfig(sensors, cfg, rnd.Derive("sensors"))
	return &World{
		Name:    "RNC",
		Region:  region,
		Working: working,
		Grid:    geo.NewUnitGrid(237, 300),
		DMax:    10,
		Fleet:   sensornet.NewFleet(sensors, model, working),
		seed:    seed,
	}
}

// NewIntelLab builds the Intel-lab-like world of §4.6: a 20x15 region
// carrying a smooth correlated field; 30 mobile sensors move by random
// waypoint and report the field value at their grid cell; a GP model is
// fit on readings from a fraction of the cells (the paper learns the
// Gaussian parameters "from a fraction of sensor readings").
func NewIntelLab(seed int64, cfg SensorConfig) *World {
	const n = 30
	region := geo.NewRect(0, 0, 20, 15)
	rnd := rng.New(seed, "intellab")
	phen := field.NewGPField(20, 4, 3, 96, rnd.Derive("field"))
	grid := geo.NewUnitGrid(20, 15)

	// Learn the GP from readings on a fraction of the cells (every third
	// cell, mimicking the 54-node lab deployment).
	var pts []geo.Point
	var vals []float64
	for idx := 0; idx < grid.NumCells(); idx += 3 {
		c := grid.CellCenter(grid.CellAt(idx))
		pts = append(pts, c)
		vals = append(vals, phen.ValueAt(c))
	}
	model, err := gp.FitSquaredExponential(pts, vals)
	if err != nil {
		// The synthetic field is never degenerate; fall back to the
		// generating kernel if fitting ever fails.
		model = gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.2)
	}

	mob := mobility.NewRandomWaypoint(n, region, []float64{2, 3}, rnd.Derive("mobility"))
	sensors := make([]*sensornet.Sensor, n)
	for i := range sensors {
		sensors[i] = sensornet.NewSensor(i, geo.Pt(0, 0))
	}
	applySensorConfig(sensors, cfg, rnd.Derive("sensors"))
	return &World{
		Name:       "IntelLab",
		Region:     region,
		Working:    region,
		Grid:       grid,
		DMax:       2,
		Fleet:      sensornet.NewFleet(sensors, mob, region),
		Phenomenon: phen,
		GPModel:    model,
		seed:       seed,
	}
}

// History returns the ozone-like historical series for a location,
// deterministic per (world seed, location) and cached. Each location has
// its own diurnal profile, standing in for the per-location traces of the
// Zurich OpenSense dataset.
func (w *World) History(loc geo.Point, slots int) *regression.Series {
	if w.histCache == nil {
		w.histCache = make(map[geo.Point]*regression.Series)
	}
	if s, ok := w.histCache[loc]; ok {
		return s
	}
	rnd := rng.New(w.seed, fmt.Sprintf("ozone-%.3f-%.3f", loc.X, loc.Y))
	d := field.DefaultOzone()
	d.Base = rnd.Uniform(40, 80)
	d.Amplitude = rnd.Uniform(15, 35)
	d.Period = float64(slots)
	vals := d.Generate(slots, rnd)
	times := make([]float64, slots)
	for i := range times {
		times[i] = float64(i)
	}
	s, _ := regression.NewSeries(times, vals)
	w.histCache[loc] = s
	return s
}

// ReadingAt returns the phenomenon value a sensor at pos would report
// during the given slot: the field value of the sensor's grid cell (the
// paper assigns stationary readings to grid cells and lets the imaginary
// mobile sensor in that cell report them).
func (w *World) ReadingAt(pos geo.Point, _ int) float64 {
	if w.Phenomenon == nil {
		return 0
	}
	return w.Phenomenon.ValueAt(w.Grid.CellCenter(w.Grid.CellOf(pos)))
}
