package calibrate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"hypermm"
)

// ProfileVersion is the schema version Parse accepts.
const ProfileVersion = 1

// AlgCalibration is one algorithm's fitted correction and prediction
// accuracy, evaluated at the profile's reference parameters.
type AlgCalibration struct {
	// Correction multiplies the effective-parameter analytic time.
	Correction float64 `json:"correction"`
	// Cells is the number of sweep cells the algorithm contributed.
	Cells int `json:"cells"`
	// MaxRelErr / MeanRelErr are the calibrated model's prediction
	// errors; the Uncal pair is the raw analytic model on the same
	// cells. WorstN/WorstP locate the worst calibrated cell.
	MaxRelErr       float64 `json:"max_rel_err"`
	MeanRelErr      float64 `json:"mean_rel_err"`
	UncalMaxRelErr  float64 `json:"uncalibrated_max_rel_err"`
	UncalMeanRelErr float64 `json:"uncalibrated_mean_rel_err"`
	WorstN          int     `json:"worst_n"`
	WorstP          int     `json:"worst_p"`
}

// Profile is the versioned calibration artifact hmm calibrate writes
// and cmd/hmmd loads: effective machine parameters plus per-algorithm
// corrections, with the sweep grid and accuracy statistics that
// produced them. Marshal output is deterministic (sorted keys, shortest
// round-trip floats), so identical sweeps produce byte-identical
// profiles.
type Profile struct {
	Version   int     `json:"version"`
	PortModel string  `json:"port_model"`
	RefTs     float64 `json:"ref_ts"`
	RefTw     float64 `json:"ref_tw"`
	TsEff     float64 `json:"ts_eff"`
	TwEff     float64 `json:"tw_eff"`
	Ns        []int   `json:"ns"`
	Ps        []int   `json:"ps"`
	// Algorithms is keyed by hypermm.Algorithm.Name().
	Algorithms map[string]AlgCalibration `json:"algorithms"`
}

// Marshal renders the profile as indented JSON with a trailing newline.
func (p *Profile) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Parse decodes and validates a profile. It rejects — never loads —
// malformed JSON, wrong versions, unknown algorithm or port-model
// names, and any non-finite or non-positive coefficient: a daemon must
// not plan traffic with a poisoned cost model.
func Parse(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("calibrate: bad profile JSON: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a profile file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	return Parse(data)
}

func (p *Profile) validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("calibrate: unsupported profile version %d (want %d)", p.Version, ProfileVersion)
	}
	if _, err := hypermm.ParsePortModel(p.PortModel); err != nil {
		return fmt.Errorf("calibrate: profile: %w", err)
	}
	for name, v := range map[string]float64{
		"ref_ts": p.RefTs, "ref_tw": p.RefTw, "ts_eff": p.TsEff, "tw_eff": p.TwEff,
	} {
		if !positiveFinite(v) {
			return fmt.Errorf("calibrate: profile %s=%g must be positive and finite", name, v)
		}
	}
	if len(p.Algorithms) == 0 {
		return fmt.Errorf("calibrate: profile has no algorithm calibrations")
	}
	for name, ac := range p.Algorithms {
		if _, err := hypermm.ParseAlgorithm(name); err != nil {
			return fmt.Errorf("calibrate: profile: %w", err)
		}
		if !positiveFinite(ac.Correction) {
			return fmt.Errorf("calibrate: profile correction for %s is %g, must be positive and finite", name, ac.Correction)
		}
		if ac.Cells < 1 {
			return fmt.Errorf("calibrate: profile %s has %d cells, need at least 1", name, ac.Cells)
		}
		for label, v := range map[string]float64{
			"max_rel_err": ac.MaxRelErr, "mean_rel_err": ac.MeanRelErr,
			"uncalibrated_max_rel_err": ac.UncalMaxRelErr, "uncalibrated_mean_rel_err": ac.UncalMeanRelErr,
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("calibrate: profile %s %s=%g must be finite and non-negative", name, label, v)
			}
		}
	}
	for _, n := range p.Ns {
		if n < 1 {
			return fmt.Errorf("calibrate: profile sweep n=%d invalid", n)
		}
	}
	for _, q := range p.Ps {
		if q < 2 || q&(q-1) != 0 {
			return fmt.Errorf("calibrate: profile sweep p=%d is not a power of two >= 2", q)
		}
	}
	return nil
}

func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// Ports returns the profile's machine model.
func (p *Profile) Ports() hypermm.PortModel {
	pm, err := hypermm.ParsePortModel(p.PortModel)
	if err != nil {
		// validate() guarantees parseability; a hand-built Profile that
		// skipped Parse gets the conservative default.
		return hypermm.OnePort
	}
	return pm
}

// Model builds the runnable calibrated cost model the profile
// describes: effective-parameter scale factors TsEff/RefTs and
// TwEff/RefTw plus the per-algorithm corrections.
func (p *Profile) Model() (*hypermm.CalibratedModel, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	corr := map[hypermm.Algorithm]float64{}
	for name, ac := range p.Algorithms {
		alg, err := hypermm.ParseAlgorithm(name)
		if err != nil {
			return nil, err
		}
		corr[alg] = ac.Correction
	}
	return hypermm.NewCalibratedModel(p.TsEff/p.RefTs, p.TwEff/p.RefTw, corr)
}
