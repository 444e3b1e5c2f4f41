// Package field synthesizes the phenomena the queries observe. It replaces
// the paper's unavailable datasets:
//
//   - GPField: a spatially correlated stationary field standing in for the
//     Intel-lab temperature readings (§4.6). Implemented with random
//     Fourier features of a squared-exponential kernel, so the field is
//     a draw from (approximately) that Gaussian process.
//   - DiurnalSeries: an ozone-like time series standing in for the Zurich
//     OpenSense trace (§4.5): daily sinusoid + linear trend + AR(1) noise.
package field

import (
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// GPField is a smooth random field sampled approximately from a GP with a
// squared-exponential kernel (variance Sigma2, length scale Length), built
// from random Fourier features.
type GPField struct {
	Mean   float64
	Sigma2 float64
	Length float64

	kx, ky, phase []float64
	amp           float64
}

// NewGPField draws a field realization. More waves give a field closer to
// an exact GP draw; 64 is plenty for simulation purposes.
func NewGPField(mean, sigma2, length float64, waves int, rnd *rng.Stream) *GPField {
	if waves <= 0 {
		waves = 64
	}
	f := &GPField{
		Mean:   mean,
		Sigma2: sigma2,
		Length: length,
		kx:     make([]float64, waves),
		ky:     make([]float64, waves),
		phase:  make([]float64, waves),
		amp:    math.Sqrt(2 * sigma2 / float64(waves)),
	}
	for i := 0; i < waves; i++ {
		// RFF for the SE kernel: frequencies ~ N(0, 1/Length^2).
		f.kx[i] = rnd.Norm(0, 1/length)
		f.ky[i] = rnd.Norm(0, 1/length)
		f.phase[i] = rnd.Uniform(0, 2*math.Pi)
	}
	return f
}

// ValueAt returns the field value at p.
func (f *GPField) ValueAt(p geo.Point) float64 {
	v := f.Mean
	for i := range f.kx {
		v += f.amp * math.Cos(f.kx[i]*p.X+f.ky[i]*p.Y+f.phase[i])
	}
	return v
}

// DiurnalSeries generates an ozone-like time series: a daily cycle with
// configurable period (in slots), amplitude, linear trend and AR(1) noise.
type DiurnalSeries struct {
	Base      float64
	Amplitude float64
	Period    float64 // slots per day
	Trend     float64 // per-slot drift
	NoiseSD   float64
	AR        float64 // AR(1) coefficient in [0,1)
}

// DefaultOzone mimics an urban ozone profile over the paper's 50-slot
// horizon (one "day" of 6am-9pm discretized in 5-minute slots would be 180
// slots; we compress to 50 so one simulation covers one diurnal cycle).
func DefaultOzone() DiurnalSeries {
	return DiurnalSeries{Base: 60, Amplitude: 25, Period: 50, Trend: 0.05, NoiseSD: 4, AR: 0.6}
}

// Generate returns n values starting at slot 0, driven by rnd.
func (d DiurnalSeries) Generate(n int, rnd *rng.Stream) []float64 {
	out := make([]float64, n)
	noise := 0.0
	for t := 0; t < n; t++ {
		noise = d.AR*noise + rnd.Norm(0, d.NoiseSD)
		out[t] = d.Base +
			d.Amplitude*math.Sin(2*math.Pi*float64(t)/d.Period-math.Pi/2) +
			d.Trend*float64(t) +
			noise
	}
	return out
}
