package synth

import (
	"fmt"

	"repro/internal/rng"
)

// DatasetProfile stands in for a text corpus: it assigns each token a domain
// according to a dataset-specific mixture. All profiles share the routing
// Kernel (expert specialization is a property of the *model*), so the only
// thing that differs across datasets is how often each domain — and hence
// each tilt of the transition rows — appears. This mirrors the paper's
// Table III finding that expert affinity is an intrinsic model property that
// holds on out-of-distribution data.
type DatasetProfile struct {
	Name string
	// Mix is the domain mixture; its length must match the kernel's Domains.
	Mix []float64
	// seed namespaces token identities so "token 5 of C4" differs from
	// "token 5 of Pile".
	seed uint64
}

// standardDomains is the domain count shared by the built-in profiles.
const standardDomains = 6

// Built-in profiles analogous to the paper's datasets. Mixtures are chosen
// to reflect the corpora's character: Pile is a broad academic/web/code mix,
// C4 is web-crawl heavy, Dolma is a broad mix with different proportions,
// and Yelp is narrow (reviews).
func Pile() *DatasetProfile {
	return &DatasetProfile{Name: "pile", Mix: []float64{0.22, 0.20, 0.18, 0.16, 0.12, 0.12}, seed: 0x9112E}
}

func C4() *DatasetProfile {
	return &DatasetProfile{Name: "c4", Mix: []float64{0.45, 0.20, 0.10, 0.10, 0.08, 0.07}, seed: 0xC4C4}
}

func Dolma() *DatasetProfile {
	return &DatasetProfile{Name: "dolma", Mix: []float64{0.18, 0.25, 0.20, 0.15, 0.12, 0.10}, seed: 0xD01A}
}

func Yelp() *DatasetProfile {
	return &DatasetProfile{Name: "yelp", Mix: []float64{0.05, 0.08, 0.07, 0.10, 0.15, 0.55}, seed: 0x4E1B}
}

// Custom builds a user-defined dataset profile — e.g. a synthetic drifted
// corpus for online-serving experiments. The mix length must match the
// routing kernel's domain count (standardDomains for the built-in kernels);
// seed namespaces the profile's token identities away from the built-ins.
func Custom(name string, mix []float64, seed uint64) *DatasetProfile {
	d := &DatasetProfile{Name: name, Mix: append([]float64(nil), mix...), seed: seed}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// AllDatasets returns the four built-in profiles, Pile first.
func AllDatasets() []*DatasetProfile {
	return []*DatasetProfile{Pile(), C4(), Dolma(), Yelp()}
}

// Validate checks the mixture.
func (d *DatasetProfile) Validate() error {
	if len(d.Mix) == 0 {
		return fmt.Errorf("synth: dataset %q has empty mix", d.Name)
	}
	total := 0.0
	for _, m := range d.Mix {
		if m < 0 {
			return fmt.Errorf("synth: dataset %q has negative mix entry", d.Name)
		}
		total += m
	}
	if total == 0 {
		return fmt.Errorf("synth: dataset %q mix sums to zero", d.Name)
	}
	return nil
}

// TokenDomain deterministically assigns a domain to a token id.
func (d *DatasetProfile) TokenDomain(tokenID uint64) int {
	var r rng.RNG
	r.Seed(rng.Mix64(d.seed, tokenID, 0xD0))
	return r.Categorical(d.Mix)
}

// TokenID maps a dataset-local token ordinal to the global token identity
// space, so different datasets produce disjoint token streams.
func (d *DatasetProfile) TokenID(ordinal uint64) uint64 {
	return rng.Mix64(d.seed, ordinal)
}
