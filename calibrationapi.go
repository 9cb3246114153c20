package hypermm

import (
	"fmt"

	"hypermm/internal/cost"
)

// CalibratedModel is an empirically corrected Table 2 cost model:
// the analytic expressions with fitted effective machine parameters
// (t_s, t_w scale factors) and per-algorithm multiplicative residual
// corrections. Build one from a calibration profile (internal/calibrate
// or hmm calibrate) via NewCalibratedModel. A nil *CalibratedModel is
// the identity: every method falls back to the uncalibrated analytic
// model.
type CalibratedModel struct {
	inner *cost.CalibratedModel
}

// NewCalibratedModel returns a model that predicts
// corr[alg] * (t_s*tsScale*a + t_w*twScale*b) with (a, b) from Table 2.
// Scale factors and corrections must be positive; algorithms absent
// from corr use 1.
func NewCalibratedModel(tsScale, twScale float64, corr map[Algorithm]float64) (*CalibratedModel, error) {
	if !(tsScale > 0) || !(twScale > 0) {
		return nil, fmt.Errorf("hypermm: calibration scales must be positive, got ts=%g tw=%g", tsScale, twScale)
	}
	inner := &cost.CalibratedModel{TsScale: tsScale, TwScale: twScale, Corr: map[cost.Alg]float64{}}
	for alg, c := range corr {
		if !(c > 0) {
			return nil, fmt.Errorf("hypermm: calibration correction for %v must be positive, got %g", alg, c)
		}
		inner.Corr[cost.Alg(alg)] = c
	}
	return &CalibratedModel{inner: inner}, nil
}

func (m *CalibratedModel) costModel() *cost.CalibratedModel {
	if m == nil {
		return nil
	}
	return m.inner
}

// CommTime is the calibrated communication time at (n, p); ok is false
// if the algorithm is inapplicable (the analytic Table 3 conditions are
// unchanged by calibration).
func (m *CalibratedModel) CommTime(alg Algorithm, n, p, ts, tw float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return m.costModel().Time(cost.Alg(alg), n, p, ts, tw, ports.internal())
}

// TotalTime is the calibrated communication time plus the perfectly
// parallel computation time 2 n^3 t_c / p.
func (m *CalibratedModel) TotalTime(alg Algorithm, n, p, ts, tw, tc float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return m.costModel().TotalTime(cost.Alg(alg), n, p, ts, tw, tc, ports.internal())
}

// BestAlgorithm returns the algorithm with the least calibrated
// communication time at (n, p) over the same candidate set as
// hypermm.BestAlgorithm, or ok=false if none applies.
func (m *CalibratedModel) BestAlgorithm(n, p, ts, tw float64, ports PortModel) (Algorithm, bool) {
	if !ports.valid() {
		return 0, false
	}
	pm := ports.internal()
	best, ok := m.costModel().Best(n, p, ts, tw, pm, cost.DefaultCandidates(pm))
	return Algorithm(best), ok
}
