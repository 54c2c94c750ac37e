// Flat candidate-space geometry for the acquisition hot loop.
//
// nextCandidate used to re-derive everything per candidate per sweep:
// a fmt.Sprintf map key for each of three map filters, a fresh 5-float
// feature slice for the GP, and a reserve check that re-ran the final
// pick over all observations — for every candidate, every step. This
// file flattens the space into struct-of-arrays form plus mutable masks
// the probe path maintains in O(1), so a sweep becomes: mask filter →
// gather → one batched posterior → serial argmax. The keys, encoded
// features and key→index map come from the Space's shared Encoding,
// computed once per Space; a search derives only its own masks, type
// bounds, prior column and capacity columns. Every floating-point
// operation and comparison of the original sweep is preserved (see
// scanCandidates), so traces stay byte-identical.

package core

import (
	"mlcd/internal/cloud"
	"mlcd/internal/gp"
)

// candSpace is one search's flat view of its deployment space. The
// geometry columns (space … hourly) are immutable after construction,
// the shared ones (enc) across every search of the Space; the mask
// columns mirror the state's string-keyed bookkeeping maps and are kept
// in sync by state.probe (the only mutation site after the view is
// seeded).
type candSpace struct {
	n   int // candidates (== space.Len())
	dim int // feature dimensionality (len(cloud.Features))

	space *cloud.Space
	// enc holds the precomputed Deployment.Key() and cloud.Features rows
	// per candidate, and First: the index of the first candidate sharing
	// a key. Masks are read and written at that canonical index, so
	// duplicate deployments in a hand-built space filter together —
	// exactly as the shared-map-key code did.
	enc *cloud.Encoding

	nodes    []int                // node count per candidate
	typeIdx  []int                // per candidate: index into types
	types    []cloud.InstanceType // distinct types, first-seen order
	capGiB   []float64            // nodeCapacityGiB(type) per candidate
	capTotal []float64            // capGiB·nodes (sharded OOM bound)
	hourly   []float64            // HourlyCost() per candidate (Eq. 8's P(m)·n)

	// Masks, indexed canonically. anyQuarantined gates the quarantine
	// column the way len(st.quarantined) > 0 gated the map.
	profiled       []bool
	pending        []bool // a low-fidelity reading awaits confirmation
	quarantined    []bool
	anyQuarantined bool

	// typeBound[t] caps explorable node counts per type (0 = unbounded);
	// refreshed from state.priorBound at the top of every sweep.
	typeBound []int

	// The prior column, per candidate, when a fleet prior is armed (nil
	// otherwise): prior[i] is the surrogate mean's MeanVar at i's
	// feature row, filled by the first sweep that admits i (priorSet[i])
	// and read by every later one. MeanVar is a pure function of the
	// row, so a stored value is the value a fresh call would return.
	prior    []gp.MeanAt
	priorSet []bool
}

// newCandSpace flattens space for one search: O(n) columns derived from
// the deployments, on top of the Space's shared encoding.
func newCandSpace(space *cloud.Space) *candSpace {
	n := space.Len()
	enc := space.Encoding()
	cs := &candSpace{
		n: n, dim: enc.Dim,
		space:       space,
		enc:         enc,
		nodes:       make([]int, n),
		typeIdx:     make([]int, n),
		capGiB:      make([]float64, n),
		capTotal:    make([]float64, n),
		hourly:      make([]float64, n),
		profiled:    make([]bool, n),
		pending:     make([]bool, n),
		quarantined: make([]bool, n),
	}
	typeIdxByName := make(map[string]int)
	for i := 0; i < n; i++ {
		d := space.At(i)
		cs.nodes[i] = d.Nodes
		ti, ok := typeIdxByName[d.Type.Name]
		if !ok {
			ti = len(cs.types)
			typeIdxByName[d.Type.Name] = ti
			cs.types = append(cs.types, d.Type)
		}
		cs.typeIdx[i] = ti
		cap := nodeCapacityGiB(d.Type)
		cs.capGiB[i] = cap
		cs.capTotal[i] = cap * float64(d.Nodes)
		cs.hourly[i] = d.HourlyCost()
	}
	cs.typeBound = make([]int, len(cs.types))
	return cs
}

// armPrior allocates the prior column; a search calls it once, when its
// surrogate has a prior mean.
func (cs *candSpace) armPrior() {
	cs.prior = make([]gp.MeanAt, cs.n)
	cs.priorSet = make([]bool, cs.n)
}

// priorAt returns candidate i's prior mean and variance under mean,
// evaluating mean at most once per search.
func (cs *candSpace) priorAt(i int, mean gp.Mean) gp.MeanAt {
	if !cs.priorSet[i] {
		cs.prior[i].Mu, cs.prior[i].Var = mean.MeanVar(cs.enc.Feats[i*cs.dim : (i+1)*cs.dim])
		cs.priorSet[i] = true
	}
	return cs.prior[i]
}

// refreshTypeBounds mirrors the concave-prior map into the flat column.
// Bounds are always ≥ 1 node, so the absent-key zero means unbounded —
// the same reading the map's ok-flag gave.
func (cs *candSpace) refreshTypeBounds(bounds map[string]int) {
	for ti := range cs.types {
		cs.typeBound[ti] = bounds[cs.types[ti].Name]
	}
}

// searchArena pools every per-sweep buffer of the acquisition loop:
// the surviving-candidate index list, the gathered feature block and
// prior column, the batched posterior outputs and their GP scratch, and the small
// fidelity-menu slices. Buffers are resliced, never shrunk, so after
// the first sweep (the largest — the candidate set only shrinks as
// probes land) a steady-state sweep allocates nothing.
type searchArena struct {
	candIdx []int
	feats   []float64
	means   []gp.MeanAt
	mu      []float64
	sigma   []float64
	menu    []float64
	passing []float64
	scratch gp.PredictMatrixScratch
}

// growFloats returns a length-n slice, reusing buf's capacity.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
