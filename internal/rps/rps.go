// Package rps is the resource prediction system the paper relies on for
// application-perspective adaptation (§3.2): streaming sensors sample
// resource signals (host load, network bandwidth), time series hold the
// history, and predictors (last-value, moving mean, autoregressive)
// forecast the next measurement so applications can pick resources. It
// follows the architecture of Dinda's RPS toolkit.
package rps

import (
	"errors"
	"fmt"
	"math"

	"vmgrid/internal/sim"
)

// Series is a bounded ring buffer of measurements.
type Series struct {
	data  []float64
	start int
	n     int
}

// NewSeries creates a series holding at most capacity samples.
func NewSeries(capacity int) (*Series, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("rps: series capacity %d", capacity)
	}
	return &Series{data: make([]float64, capacity)}, nil
}

// Add appends a sample, evicting the oldest when full.
func (s *Series) Add(v float64) {
	if s.n < len(s.data) {
		s.data[(s.start+s.n)%len(s.data)] = v
		s.n++
		return
	}
	s.data[s.start] = v
	s.start = (s.start + 1) % len(s.data)
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.n }

// Last returns the most recent sample (0 if empty).
func (s *Series) Last() float64 {
	if s.n == 0 {
		return 0
	}
	return s.data[(s.start+s.n-1)%len(s.data)]
}

// Values returns the samples oldest-first (a copy).
func (s *Series) Values() []float64 { return s.AppendValues(make([]float64, 0, s.n)) }

// AppendValues appends the samples oldest-first to dst and returns the
// extended slice, so a caller refitting on every sample can reuse one
// buffer.
func (s *Series) AppendValues(dst []float64) []float64 {
	if end := s.start + s.n; end <= len(s.data) {
		return append(dst, s.data[s.start:end]...)
	}
	dst = append(dst, s.data[s.start:]...)
	return append(dst, s.data[:s.start+s.n-len(s.data)]...)
}

// Mean returns the sample mean (0 if empty).
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values() {
		sum += v
	}
	return sum / float64(s.n)
}

// Sensor periodically samples a measurement function into a series —
// the streaming time-series feed of the RPS architecture.
type Sensor struct {
	k        *sim.Kernel
	interval sim.Duration
	measure  func() float64
	series   *Series
	tee      func(at sim.Time, v float64)
	running  bool
	next     sim.EventID
	samples  uint64
}

// NewSensor creates a sensor sampling measure every interval into a
// series of the given history length.
func NewSensor(k *sim.Kernel, interval sim.Duration, history int, measure func() float64) (*Sensor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("rps: sensor interval %v", interval)
	}
	if measure == nil {
		return nil, errors.New("rps: sensor without a measurement function")
	}
	series, err := NewSeries(history)
	if err != nil {
		return nil, err
	}
	return &Sensor{k: k, interval: interval, measure: measure, series: series}, nil
}

// Series returns the sensor's backing series.
func (s *Sensor) Series() *Series { return s.series }

// Samples counts the samples the sensor has taken — a version number for
// its series, so consumers can cache what they derive from it (a fitted
// forecast) until the next sample lands.
func (s *Sensor) Samples() uint64 { return s.samples }

// Tee registers an observer invoked with every sample the sensor takes,
// stamped with the sampling instant — the bridge that lets the
// telemetry pipeline mirror sensor readings into its timestamped store
// without a second measurement. At most one observer; nil disables.
func (s *Sensor) Tee(fn func(at sim.Time, v float64)) { s.tee = fn }

// Start begins sampling (first sample immediately).
func (s *Sensor) Start() {
	if s.running {
		return
	}
	s.running = true
	s.tick()
}

// Stop halts sampling.
func (s *Sensor) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.k.Cancel(s.next)
	s.next = sim.EventID{}
}

func (s *Sensor) tick() {
	if !s.running {
		return
	}
	v := s.measure()
	s.series.Add(v)
	s.samples++
	if s.tee != nil {
		s.tee(s.k.Now(), v)
	}
	s.next = s.k.After(s.interval, s.tick)
}

// Predictor forecasts the next sample of a signal.
type Predictor interface {
	// Name identifies the model.
	Name() string
	// Train fits the model to a history (oldest first).
	Train(history []float64) error
	// Predict returns the one-step-ahead forecast.
	Predict() float64
	// Observe feeds the actual next sample, sliding the model forward.
	Observe(v float64)
}

// LastValue predicts "the next value equals the current one" — the
// baseline that is surprisingly hard to beat on host load at short
// leads.
type LastValue struct{ last float64 }

// Name implements Predictor.
func (p *LastValue) Name() string { return "LAST" }

// Train implements Predictor.
func (p *LastValue) Train(history []float64) error {
	if len(history) == 0 {
		return errors.New("rps: LAST needs at least one sample")
	}
	p.last = history[len(history)-1]
	return nil
}

// Predict implements Predictor.
func (p *LastValue) Predict() float64 { return p.last }

// Observe implements Predictor.
func (p *LastValue) Observe(v float64) { p.last = v }

// MovingMean predicts the mean of the last W samples.
type MovingMean struct {
	window  int
	samples []float64
}

// NewMovingMean creates a mean predictor over a window of w samples.
func NewMovingMean(w int) (*MovingMean, error) {
	if w <= 0 {
		return nil, fmt.Errorf("rps: window %d", w)
	}
	return &MovingMean{window: w}, nil
}

// Name implements Predictor.
func (p *MovingMean) Name() string { return fmt.Sprintf("MEAN(%d)", p.window) }

// Train implements Predictor.
func (p *MovingMean) Train(history []float64) error {
	if len(history) == 0 {
		return errors.New("rps: MEAN needs at least one sample")
	}
	start := len(history) - p.window
	if start < 0 {
		start = 0
	}
	p.samples = append(p.samples[:0], history[start:]...)
	return nil
}

// Predict implements Predictor.
func (p *MovingMean) Predict() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range p.samples {
		sum += v
	}
	return sum / float64(len(p.samples))
}

// Observe implements Predictor.
func (p *MovingMean) Observe(v float64) {
	p.samples = append(p.samples, v)
	if len(p.samples) > p.window {
		p.samples = p.samples[1:]
	}
}

// AR is an autoregressive model AR(p) fit by the Yule-Walker equations
// (Levinson-Durbin recursion) — the workhorse model of the RPS toolkit
// for host load.
type AR struct {
	order    int
	coeffs   []float64
	mean     float64
	recent   []float64 // last `order` samples, newest last
	centered []float64 // Train scratch: history minus its mean
}

// NewAR creates an AR model of the given order.
func NewAR(order int) (*AR, error) {
	if order <= 0 {
		return nil, fmt.Errorf("rps: AR order %d", order)
	}
	return &AR{order: order}, nil
}

// Name implements Predictor.
func (p *AR) Name() string { return fmt.Sprintf("AR(%d)", p.order) }

// Train implements Predictor: fit coefficients by Levinson-Durbin on the
// sample autocorrelations.
func (p *AR) Train(history []float64) error {
	if len(history) < p.order*2+1 {
		return fmt.Errorf("rps: AR(%d) needs ≥ %d samples, got %d", p.order, p.order*2+1, len(history))
	}
	n := len(history)
	var mean float64
	for _, v := range history {
		mean += v
	}
	mean /= float64(n)

	// Autocorrelations r[0..order]. Every lag sums its products in
	// ascending i, as a lag-at-a-time loop would, so the result is
	// bit-identical; walking all lags per sample keeps order+1
	// independent sums in flight instead of one long add chain.
	d := p.centered[:0]
	for _, v := range history {
		d = append(d, v-mean)
	}
	p.centered = d
	r := make([]float64, p.order+1)
	for i, di := range d {
		for lag := 0; lag <= p.order && lag <= i; lag++ {
			r[lag] += di * d[i-lag]
		}
	}
	for lag := range r {
		r[lag] /= float64(n)
	}
	if r[0] <= 1e-12 {
		// Constant signal: degenerate to predicting the mean.
		p.coeffs = make([]float64, p.order)
		p.mean = mean
		p.recent = append(p.recent[:0], history[n-p.order:]...)
		return nil
	}

	// Levinson-Durbin recursion.
	a := make([]float64, p.order+1)
	next := make([]float64, p.order+1)
	e := r[0]
	for k := 1; k <= p.order; k++ {
		var acc float64
		for j := 1; j < k; j++ {
			acc += a[j] * r[k-j]
		}
		lambda := (r[k] - acc) / e
		copy(next, a)
		for j := 1; j < k; j++ {
			next[j] = a[j] - lambda*a[k-j]
		}
		next[k] = lambda
		copy(a, next)
		e *= 1 - lambda*lambda
		if e <= 0 {
			e = 1e-12
		}
	}
	p.coeffs = a[1:]
	p.mean = mean
	p.recent = append(p.recent[:0], history[n-p.order:]...)
	return nil
}

// Predict implements Predictor.
func (p *AR) Predict() float64 {
	if len(p.recent) < p.order {
		return p.mean
	}
	pred := p.mean
	for j := 0; j < p.order; j++ {
		pred += p.coeffs[j] * (p.recent[len(p.recent)-1-j] - p.mean)
	}
	return pred
}

// Observe implements Predictor.
func (p *AR) Observe(v float64) {
	p.recent = append(p.recent, v)
	if len(p.recent) > p.order {
		p.recent = p.recent[1:]
	}
}

// Eval reports one-step-ahead accuracy of a predictor on a signal.
type Eval struct {
	Predictor string
	MSE       float64
	MAE       float64
	N         int
}

// Evaluate trains p on the first train samples of data, then walks the
// remainder predicting one step ahead and observing the truth.
func Evaluate(p Predictor, data []float64, train int) (Eval, error) {
	if train <= 0 || train >= len(data) {
		return Eval{}, fmt.Errorf("rps: train split %d of %d", train, len(data))
	}
	if err := p.Train(data[:train]); err != nil {
		return Eval{}, err
	}
	var mse, mae float64
	n := 0
	for i := train; i < len(data); i++ {
		pred := p.Predict()
		err := pred - data[i]
		mse += err * err
		mae += math.Abs(err)
		p.Observe(data[i])
		n++
	}
	return Eval{Predictor: p.Name(), MSE: mse / float64(n), MAE: mae / float64(n), N: n}, nil
}
