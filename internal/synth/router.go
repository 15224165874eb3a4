package synth

import (
	"repro/internal/moe"
	"repro/internal/rng"
)

// KernelRouter adapts a Kernel (plus a dataset profile for domain
// assignment) to the moe.Router interface used by the inference engine. The
// hidden activation is ignored — routing statistics come from the kernel —
// but the router is still a deterministic pure function of (layer, tokenID,
// prev), which is the property the engine's shared-gating invariant needs.
//
// TopK of 2 returns a second, distinct expert drawn from the same
// conditional row (GShard-style top-2).
type KernelRouter struct {
	Kernel  *Kernel
	Profile *DatasetProfile
	TopK    int
}

// NewKernelRouter wires a kernel and a dataset profile together.
func NewKernelRouter(k *Kernel, p *DatasetProfile, topK int) *KernelRouter {
	if topK != 1 && topK != 2 {
		panic("synth: TopK must be 1 or 2")
	}
	return &KernelRouter{Kernel: k, Profile: p, TopK: topK}
}

// Experts implements moe.Router.
func (kr *KernelRouter) Experts() int { return kr.Kernel.Experts }

// PathInto writes the token's primary expert at every layer into path (length
// Kernel.Layers) — the experts chained Route calls return first — drawing
// the token's domain once and allocating nothing.
func (kr *KernelRouter) PathInto(tokenID uint64, path []int) {
	kr.Kernel.PathInto(tokenID, kr.Profile.TokenDomain(tokenID), path)
}

// Route implements moe.Router.
func (kr *KernelRouter) Route(layer int, tokenID uint64, prev int, h []float32) []int {
	return kr.route(layer, tokenID, prev, kr.Profile.TokenDomain(tokenID))
}

// route selects the token's experts at layer; a token at layer 0, or with no
// previous expert, draws from the initial distribution.
func (kr *KernelRouter) route(layer int, tokenID uint64, prev, domain int) []int {
	var primary int
	if layer == 0 || prev < 0 {
		primary = kr.Kernel.First(tokenID, domain)
	} else {
		primary = kr.Kernel.Next(tokenID, layer, prev, domain)
	}
	if kr.TopK == 1 {
		return []int{primary}
	}
	return []int{primary, kr.second(layer, tokenID, prev, domain, primary)}
}

// row returns the tilted row route drew the primary expert from.
func (kr *KernelRouter) row(layer, prev, domain int) []float64 {
	if layer == 0 || prev < 0 {
		return kr.Kernel.row(0, 0, domain)
	}
	return kr.Kernel.row(layer, prev, domain)
}

// second draws a distinct secondary expert from the same conditional row
// with primary's weight treated as zero. The running sums skip primary in
// place, which is bit-identical to summing a copy with a zero there.
func (kr *KernelRouter) second(layer int, tokenID uint64, prev, domain, primary int) int {
	row := kr.row(layer, prev, domain)
	total := 0.0
	for i, v := range row {
		if i != primary {
			total += v
		}
	}
	if total == 0 {
		// Degenerate row (probability mass entirely on primary): fall back
		// to the next expert index, preserving determinism.
		return (primary + 1) % kr.Kernel.Experts
	}
	var r rng.RNG
	r.Seed(rng.Mix64(kr.Kernel.Seed, tokenID, uint64(layer), 0x2ED))
	u := r.Float64() * total
	acc := 0.0
	for i, v := range row {
		if i != primary {
			acc += v
		}
		if u < acc {
			return i
		}
	}
	return len(row) - 1 // floating-point slack
}

// RouteWeighted implements moe.WeightedRouter: mixture weights proportional
// to the kernel's conditional probabilities of the selected experts.
func (kr *KernelRouter) RouteWeighted(layer int, tokenID uint64, prev int, h []float32) ([]int, []float64) {
	domain := kr.Profile.TokenDomain(tokenID)
	experts := kr.route(layer, tokenID, prev, domain)
	row := kr.row(layer, prev, domain)
	weights := make([]float64, len(experts))
	total := 0.0
	for i, e := range experts {
		weights[i] = row[e]
		total += row[e]
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1 / float64(len(weights))
		}
		return experts, weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return experts, weights
}

var _ moe.Router = (*KernelRouter)(nil)
var _ moe.WeightedRouter = (*KernelRouter)(nil)
