package bo

import (
	"fmt"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/obs"
)

// MultiFidelitySurrogate is a two-stage surrogate for searches that mix
// full probes with cheap sub-sampled ones. While every observation is
// full fidelity it delegates verbatim to a plain Surrogate — same calls,
// same rng stream, same bytes out. The moment a low-fidelity reading
// arrives it switches to a corrected view: raw readings stay in a
// ledger, a gp.GapRegressor lifts the biased ones to predicted full-
// fidelity values, and the GP is rebuilt over the corrected set. When a
// low-probed deployment is later measured in full, the exact (low,
// full) pair teaches the regressor and the corrected entry is replaced
// by the truth.
type MultiFidelitySurrogate struct {
	inner *Surrogate
	gap   *gp.GapRegressor

	// The raw ledger: every observation ever absorbed, in order, with
	// the fidelity it was taken at and the instance-type key the gap
	// model groups by. idxByDep finds a deployment's latest entry.
	ds       []cloud.Deployment
	ys       []float64
	fs       []float64
	keys     []string
	idxByDep map[string]int

	// mixed flips (stickily) on the first low-fidelity observation;
	// from then on `cur` replaces `inner` as the serving model.
	mixed bool
	cur   *Surrogate
}

// GapUpdate reports one promotion: a low-probed deployment re-measured
// at full fidelity, closing the loop on the gap model.
type GapUpdate struct {
	// Key is the instance-type name the gap model groups by.
	Key string
	// Fidelity is the fidelity of the earlier sub-sampled probe.
	Fidelity float64
	// Observed is the measured log-gap yFull − yLow.
	Observed float64
	// Predicted is what the gap model expected before seeing this pair.
	Predicted float64
	// Residual is Observed − Predicted: the model's error on this pair.
	Residual float64
	// Beta is the key's slope estimate after absorbing the pair.
	Beta float64
}

// NewMultiFidelitySurrogate wraps a plain surrogate; its gap model
// starts from gp.DefaultPriorBeta.
func NewMultiFidelitySurrogate(inner *Surrogate) *MultiFidelitySurrogate {
	return &MultiFidelitySurrogate{
		inner:    inner,
		gap:      gp.NewGapRegressor(),
		idxByDep: make(map[string]int),
	}
}

// SetPerf routes re-conditioning timings (mirrors Surrogate.Perf).
func (m *MultiFidelitySurrogate) SetPerf(p *obs.Perf) { m.inner.Perf = p }

// SetMean installs a prior mean function on the serving surrogate and
// on every future rebuild (mirrors Surrogate.SetMean). Installing it
// before the first observation keeps the classic delegation exact: a
// nil mean changes nothing, bit for bit.
func (m *MultiFidelitySurrogate) SetMean(mean gp.Mean) {
	m.inner.SetMean(mean)
	if m.cur != nil {
		m.cur.SetMean(mean)
	}
}

// serving returns the surrogate answering queries right now.
func (m *MultiFidelitySurrogate) serving() *Surrogate {
	if m.mixed {
		return m.cur
	}
	return m.inner
}

// Len returns the number of observations the serving model holds.
func (m *MultiFidelitySurrogate) Len() int { return m.serving().Len() }

// PredictMatrix mirrors Surrogate.PredictMatrix on the serving model.
func (m *MultiFidelitySurrogate) PredictMatrix(feats []float64, dim int, means []gp.MeanAt, mu, sigma []float64, scratch *gp.PredictMatrixScratch) {
	m.serving().PredictMatrix(feats, dim, means, mu, sigma, scratch)
}

// Predict mirrors Surrogate.Predict on the serving model.
func (m *MultiFidelitySurrogate) Predict(d cloud.Deployment) (mu, sigma float64) {
	return m.serving().Predict(d)
}

// BestObserved mirrors Surrogate.BestObserved on the serving model; in
// mixed mode that maximum is over gap-corrected values.
func (m *MultiFidelitySurrogate) BestObserved() float64 { return m.serving().BestObserved() }

// Observe absorbs a full-fidelity observation (the classic interface).
func (m *MultiFidelitySurrogate) Observe(d cloud.Deployment, y float64) error {
	_, err := m.ObserveAt(d, y, 1)
	return err
}

// ObserveAll absorbs a batch of full-fidelity observations with one
// hyperparameter refit (see Surrogate.ObserveAll) and returns the
// indices of the pairs it skipped; the ledger records every other pair.
// It batches the classic delegation, so it must precede any
// low-fidelity observation.
func (m *MultiFidelitySurrogate) ObserveAll(ds []cloud.Deployment, ys []float64) (skipped []int, err error) {
	if m.mixed {
		panic("bo: ObserveAll after a low-fidelity observation")
	}
	skipped, err = m.inner.ObserveAll(ds, ys)
	next := 0
	for i, d := range ds {
		if next < len(skipped) && skipped[next] == i {
			next++
			continue
		}
		m.record(d, ys[i], 1)
	}
	return skipped, err
}

// record appends a new ledger entry and makes it d's latest.
func (m *MultiFidelitySurrogate) record(d cloud.Deployment, y, f float64) {
	m.ds = append(m.ds, d)
	m.ys = append(m.ys, y)
	m.fs = append(m.fs, f)
	m.keys = append(m.keys, d.Type.Name)
	m.idxByDep[d.Key()] = len(m.ds) - 1
}

// ObserveAt absorbs an observation taken at fidelity f (≤ 0 or ≥ 1
// means full). The returned GapUpdate is non-nil exactly when this
// observation promoted an earlier low-fidelity probe of the same
// deployment — the caller surfaces it in traces and metrics.
func (m *MultiFidelitySurrogate) ObserveAt(d cloud.Deployment, y, f float64) (*GapUpdate, error) {
	if f <= 0 || f >= 1 {
		f = 1
	}
	depKey := d.Key()
	typeKey := d.Type.Name

	if f >= 1 {
		if i, ok := m.idxByDep[depKey]; ok && m.fs[i] < 1 {
			// Promotion: the exact pair teaches the gap model, and the
			// corrected guess is replaced by the measured truth.
			up := &GapUpdate{
				Key:       typeKey,
				Fidelity:  m.fs[i],
				Observed:  y - m.ys[i],
				Predicted: m.gap.Predict(typeKey, m.fs[i]),
			}
			up.Residual = up.Observed - up.Predicted
			m.gap.Observe(typeKey, m.fs[i], up.Observed)
			up.Beta = m.gap.Beta(typeKey)
			m.ys[i] = y
			m.fs[i] = 1
			return up, m.rebuild()
		}
		if !m.mixed {
			// The ledger follows the serving model: a pair it could not
			// condition must not resurface in a later rebuild.
			err := m.inner.Observe(d, y)
			if m.inner.Len() > len(m.ds) {
				m.record(d, y, 1)
			}
			return nil, err
		}
		m.record(d, y, 1)
		return nil, m.rebuild()
	}

	if i, ok := m.idxByDep[depKey]; ok {
		if m.fs[i] >= 1 {
			// A full measurement already exists; a cheaper biased reading
			// adds nothing.
			return nil, nil
		}
		// A higher-fidelity burst supersedes the earlier one.
		if f > m.fs[i] {
			m.ys[i] = y
			m.fs[i] = f
		}
	} else {
		m.record(d, y, f)
	}
	m.mixed = true
	return nil, m.rebuild()
}

// rebuild reconditions a fresh GP over the corrected ledger: raw values
// for full-fidelity entries, gap-corrected ones for pending lows.
// Hyperparameters are refit once, at the end (one ObserveAll). The
// serving model is only replaced when every entry conditioned.
func (m *MultiFidelitySurrogate) rebuild() error {
	fresh := NewSurrogate(m.inner.kernel.Clone(), m.inner.rng)
	fresh.Perf = m.inner.Perf
	fresh.SetMean(m.inner.mean)
	ys := make([]float64, len(m.ys))
	for i, y := range m.ys {
		if m.fs[i] < 1 {
			y = m.gap.Correct(m.keys[i], m.fs[i], y)
		}
		ys[i] = y
	}
	skipped, err := fresh.ObserveAll(m.ds, ys)
	if len(skipped) > 0 {
		return fmt.Errorf("bo: rebuilding surrogate: %d of %d ledger entries failed to condition", len(skipped), len(m.ds))
	}
	if err != nil {
		return err
	}
	m.cur = fresh
	return nil
}
