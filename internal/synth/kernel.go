// Package synth generates synthetic expert-routing behaviour with
// controllable inter-layer affinity. It stands in for the pre-trained GPT
// MoE checkpoints the paper profiles (see DESIGN.md, substitutions): what
// the ExFlow pipeline consumes from a real model is the joint distribution
// of per-layer expert choices, and this package produces that distribution
// as a first-order Markov process over layers whose transition rows have a
// tunable concentration — reproducing the "few red columns per row"
// structure of the paper's Fig 2 heatmaps.
package synth

import (
	"fmt"

	"repro/internal/rng"
)

// Kernel is a generative model of token routing: a token's expert at layer 0
// is drawn from an initial distribution and the expert at layer j+1 is drawn
// from a row-stochastic transition matrix indexed by the expert at layer j.
// Rows mix a spiky (Dirichlet) component with the uniform distribution;
// Strength in [0,1] sets the mixing weight and therefore the affinity.
//
// Tokens belong to domains (see DatasetProfile); a domain tilts the
// transition rows multiplicatively, modeling topical specialization without
// destroying the shared backbone — this is what makes affinity learned on
// one dataset transfer to others (paper Table III).
type Kernel struct {
	Seed     uint64
	Layers   int
	Experts  int
	Strength float64
	Domains  int

	trans [][][]float64 // [layer][from][to], layer in [0, Layers-2]

	// rows holds every domain-tilted, normalized row a draw conditions on,
	// flat, Experts entries each (see rowAt for the layout); cums holds
	// their running sums for rng.CategoricalCum. Both are built once by
	// NewKernel, so a draw allocates nothing and scans no row.
	rows []float64
	cums []float64
}

// KernelParams configures NewKernel.
type KernelParams struct {
	Seed    uint64
	Layers  int
	Experts int
	// Strength in [0,1]: 0 gives uniform routing (no affinity), values near
	// 1 give near-deterministic successor experts. Pre-trained GPT MoE models
	// measured in the paper correspond to roughly 0.75-0.9.
	Strength float64
	// Domains is the number of token domains (default 6).
	Domains int
	// SpikyAlpha is the Dirichlet concentration of the spiky row component;
	// smaller is spikier. Default 0.15.
	SpikyAlpha float64
	// DomainTilt scales the spread of the per-domain expert preferences.
	// 1 (the default, also selected by 0) reproduces the mild tilt that
	// makes affinity transfer across datasets (paper Table III); larger
	// values model more domain-specialized checkpoints, whose routing — and
	// hence whose optimal placement — genuinely shifts when the serving
	// traffic's domain mixture drifts.
	DomainTilt float64
	// ActiveExperts restricts routing to the first ActiveExperts experts
	// (used by the training-evolution model to reproduce early-training
	// expert collapse). Zero means all experts are active.
	ActiveExperts int
}

// NewKernel builds a deterministic kernel from the parameters.
func NewKernel(p KernelParams) *Kernel {
	if p.Layers < 1 || p.Experts < 1 {
		panic(fmt.Sprintf("synth: invalid kernel shape %dx%d", p.Layers, p.Experts))
	}
	if p.Strength < 0 || p.Strength > 1 {
		panic("synth: Strength must be in [0,1]")
	}
	if p.Domains <= 0 {
		p.Domains = 6
	}
	if p.SpikyAlpha <= 0 {
		p.SpikyAlpha = 0.15
	}
	if p.DomainTilt <= 0 {
		p.DomainTilt = 1
	}
	active := p.ActiveExperts
	if active <= 0 || active > p.Experts {
		active = p.Experts
	}
	k := &Kernel{
		Seed:     p.Seed,
		Layers:   p.Layers,
		Experts:  p.Experts,
		Strength: p.Strength,
		Domains:  p.Domains,
	}
	r := rng.New(rng.Mix64(p.Seed, 0x5E17))

	uniform := 1.0 / float64(active)
	initDist := make([]float64, p.Experts) // layer-0 expert distribution
	spikyInit := r.Dirichlet(active, 0.8)
	for e := 0; e < active; e++ {
		initDist[e] = 0.5*spikyInit[e] + 0.5*uniform
	}

	k.trans = make([][][]float64, p.Layers-1)
	for l := range k.trans {
		k.trans[l] = make([][]float64, p.Experts)
		for from := 0; from < p.Experts; from++ {
			row := make([]float64, p.Experts)
			spiky := r.Dirichlet(active, p.SpikyAlpha)
			for to := 0; to < active; to++ {
				row[to] = p.Strength*spiky[to] + (1-p.Strength)*uniform
			}
			k.trans[l][from] = row
		}
	}

	domPref := make([][]float64, p.Domains) // [domain][expert] multiplicative tilt
	for d := range domPref {
		pref := make([]float64, p.Experts)
		draw := r.Dirichlet(active, 1.2)
		for e := 0; e < active; e++ {
			// Tilt factors in [0.6, 0.6 + 0.8*DomainTilt*E*p]; at the default
			// tilt the mean is 1.4-ish, mild enough that the backbone
			// dominates.
			pref[e] = 0.6 + 0.8*p.DomainTilt*float64(active)*draw[e]
		}
		domPref[d] = pref
	}

	n := p.Domains * (1 + (p.Layers-1)*p.Experts) * p.Experts
	k.rows, k.cums = make([]float64, n), make([]float64, n)
	for d, pref := range domPref {
		k.tabulate(k.rowAt(0, 0, d), initDist, pref)
		for l, rows := range k.trans {
			for from, base := range rows {
				k.tabulate(k.rowAt(l+1, from, d), base, pref)
			}
		}
	}
	return k
}

// rowAt returns the offset in rows and cums of the row a draw at layer reads
// for a token of the given domain whose expert at layer-1 was from. Layer 0
// has one row per domain (from is ignored); layer l >= 1 has Experts rows
// per domain, domain innermost:
//
//	layer 0:  domain
//	layer l:  Domains + ((l-1)*Experts + from)*Domains + domain
//
// each scaled by Experts.
func (k *Kernel) rowAt(layer, from, domain int) int {
	if domain < 0 {
		panic(fmt.Sprintf("synth: negative domain %d", domain))
	}
	d := domain % k.Domains
	if layer == 0 {
		return d * k.Experts
	}
	return (k.Domains + ((layer-1)*k.Experts+from)*k.Domains + d) * k.Experts
}

// tabulate writes base element-wise multiplied by the domain preference,
// normalized, at offset o of rows, and its running sums at o of cums. base
// entries for inactive experts are zero and stay zero; a base with no mass
// under the tilt is kept as is, and rng.Cumulative rejects it.
func (k *Kernel) tabulate(o int, base, pref []float64) {
	out := k.rows[o : o+k.Experts]
	total := 0.0
	for i, b := range base {
		out[i] = b * pref[i]
		total += out[i]
	}
	if total == 0 {
		copy(out, base)
	} else {
		for i := range out {
			out[i] /= total
		}
	}
	rng.Cumulative(k.cums[o:o+k.Experts], out)
}

// row returns the tilted, normalized distribution a draw at layer reads
// (see rowAt); the caller must not modify it.
func (k *Kernel) row(layer, from, domain int) []float64 {
	o := k.rowAt(layer, from, domain)
	return k.rows[o : o+k.Experts : o+k.Experts]
}

// draw samples the expert at layer from the stream of (kernel seed, tokenID,
// layer), reading the tabulated row for (layer, from, domain).
func (k *Kernel) draw(tokenID uint64, layer, from, domain int) int {
	var r rng.RNG
	r.Seed(rng.Mix64(k.Seed, tokenID, uint64(layer)))
	o := k.rowAt(layer, from, domain)
	return r.CategoricalCum(k.cums[o : o+k.Experts])
}

// First samples the layer-0 expert for a token. The draw is a pure function
// of (kernel seed, tokenID), so repeated calls agree — this is what makes
// the shared-gating-function invariant hold in the engine: any GPU asking
// "where does token t go at layer 0" gets the same answer.
func (k *Kernel) First(tokenID uint64, domain int) int {
	return k.draw(tokenID, 0, 0, domain)
}

// Next samples the expert at layer given the expert chosen at layer-1.
// layer must be in [1, Layers). Deterministic in (seed, tokenID, layer,
// prev, domain).
func (k *Kernel) Next(tokenID uint64, layer, prev, domain int) int {
	if layer < 1 || layer >= k.Layers {
		panic(fmt.Sprintf("synth: Next layer %d out of range [1,%d)", layer, k.Layers))
	}
	if prev < 0 || prev >= k.Experts {
		panic(fmt.Sprintf("synth: invalid prev expert %d", prev))
	}
	return k.draw(tokenID, layer, prev, domain)
}

// Path returns the full per-layer expert path of a token.
func (k *Kernel) Path(tokenID uint64, domain int) []int {
	path := make([]int, k.Layers)
	k.PathInto(tokenID, domain, path)
	return path
}

// PathInto writes the token's per-layer expert path into path, whose length
// must be Layers: path[0] is First and path[l] is Next from path[l-1]. It
// allocates nothing.
func (k *Kernel) PathInto(tokenID uint64, domain int, path []int) {
	if len(path) != k.Layers {
		panic(fmt.Sprintf("synth: path length %d, want %d", len(path), k.Layers))
	}
	e := k.draw(tokenID, 0, 0, domain)
	path[0] = e
	for l := 1; l < k.Layers; l++ {
		e = k.draw(tokenID, l, e, domain)
		path[l] = e
	}
}

// Transition returns the ground-truth row P(.|from) between layer and
// layer+1 (domain-untilted). Exposed for estimation-convergence tests.
func (k *Kernel) Transition(layer, from int) []float64 {
	return k.trans[layer][from]
}
