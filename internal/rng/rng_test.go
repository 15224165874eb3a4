package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(1, 2, 3) != Mix64(1, 2, 3) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1, 2, 3) == Mix64(1, 2, 4) {
		t.Fatal("Mix64 collision on trivially different inputs")
	}
	if Mix64(1, 2) == Mix64(2, 1) {
		t.Fatal("Mix64 should be order-sensitive")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 17 {
		t.Fatalf("Intn(17) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(5)
	s := []int{1, 2, 2, 3, 9, 9, 9}
	counts := map[int]int{}
	for _, v := range s {
		counts[v]++
	}
	r.Shuffle(s)
	for _, v := range s {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiplicity of %d by %d", k, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(17)
	weights := []float64{1, 2, 3, 4}
	counts := make([]float64, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d: got frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalSingleton(t *testing.T) {
	r := New(19)
	for i := 0; i < 10; i++ {
		if r.Categorical([]float64{5}) != 0 {
			t.Fatal("singleton categorical must return 0")
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	r := New(23)
	weights := []float64{0, 1, 0, 1}
	for i := 0; i < 10000; i++ {
		c := r.Categorical(weights)
		if c == 0 || c == 2 {
			t.Fatalf("chose zero-weight category %d", c)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", ws)
				}
			}()
			New(1).Categorical(ws)
		}()
	}
}

func TestSeedMatchesNew(t *testing.T) {
	var r RNG
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 8; i++ {
			if a, b := r.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Seed gives %x, New gives %x", seed, i, a, b)
			}
		}
	}
}

// TestPropertyCategoricalCumMatchesCategorical pins the bit-identity the
// routing tables rest on: from the same generator state, CategoricalCum over
// Cumulative(w) returns Categorical(w)'s index and consumes the same draws.
// The weight vectors mix zero runs (leading, trailing, interior), length 1,
// all-but-one zero, and magnitudes spread over many binades so running sums
// round.
func TestPropertyCategoricalCumMatchesCategorical(t *testing.T) {
	gen := New(0xC0C0)
	for trial := 0; trial < 4000; trial++ {
		n := 1 + gen.Intn(40)
		w := make([]float64, n)
		switch trial % 4 {
		case 0: // all but one zero
			w[gen.Intn(n)] = gen.Float64() + 1e-3
		case 1: // leading and trailing zero runs around a dense middle
			lo, hi := gen.Intn(n), gen.Intn(n)
			if lo > hi {
				lo, hi = hi, lo
			}
			for i := lo; i <= hi; i++ {
				w[i] = gen.Float64()
			}
			w[lo] += 1e-3
		default: // scattered zeros, magnitudes across 2^-30..2^30
			for i := range w {
				if gen.Intn(3) > 0 {
					w[i] = math.Ldexp(gen.Float64()+0.5, gen.Intn(61)-30)
				}
			}
			w[gen.Intn(n)] += 1
		}
		cum := make([]float64, n)
		Cumulative(cum, w)
		for s := 0; s < 20; s++ {
			seed := gen.Uint64()
			a, b := New(seed), New(seed)
			want, got := a.Categorical(w), b.CategoricalCum(cum)
			if want != got {
				t.Fatalf("weights %v seed %x: Categorical %d, CategoricalCum %d", w, seed, want, got)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("weights %v seed %x: generators diverged after the draw", w, seed)
			}
		}
	}
}

// yielding returns a generator whose next Float64 is exactly f/2^53: the
// xoshiro256** output depends only on s1, so s1 is solved for directly.
func yielding(f uint64) *RNG {
	inv := func(a uint64) uint64 { // inverse of odd a mod 2^64 (Newton)
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	y := (f << 11) * inv(9)
	return &RNG{s0: 1, s1: rotl(y, 64-7) * inv(5), s2: 2, s3: 3}
}

// TestCategoricalCumBoundaries drives both samplers with u landing exactly
// on running sums — where "<" against "<=" and zero-weight runs decide the
// index — and on the floating-point slack. A normal total never produces
// slack (Float64() < 1 rounds the product below the total), but a
// subnormal total does: u rounds up to the total and both samplers fall
// through to the last index, even a zero-weight one.
func TestCategoricalCumBoundaries(t *testing.T) {
	const one = uint64(1) << 53
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		w []float64
		f uint64
	}{
		{[]float64{0, 0, 5}, 0},               // u = 0 before a leading zero run
		{[]float64{1, 0, 1, 2}, one / 4},      // u = cum[0] = cum[1]
		{[]float64{1, 0, 1, 2}, one / 2},      // u = cum[2]
		{[]float64{1, 0, 1, 2, 0}, one/2 + 1}, // just past cum[2]
		{[]float64{1, 2, 0}, one - 1},         // largest u, normal total
		{[]float64{7}, one - 1},               // length 1
		{[]float64{0, 0, 0, 0.5, 0, 0}, one / 3},
		{[]float64{0, tiny, 0}, one - 1}, // slack onto a trailing zero
	}
	for _, c := range cases {
		cum := make([]float64, len(c.w))
		Cumulative(cum, c.w)
		if yielding(c.f).Float64() != float64(c.f)/float64(one) {
			t.Fatal("yielding does not control the next draw")
		}
		want, got := yielding(c.f).Categorical(c.w), yielding(c.f).CategoricalCum(cum)
		if want != got {
			t.Fatalf("weights %v u=%v·total: Categorical %d, CategoricalCum %d", c.w, float64(c.f)/float64(one), want, got)
		}
	}
	if got := yielding(one - 1).CategoricalCum([]float64{0, tiny, tiny}); got != 2 {
		t.Fatalf("slack draw returned %d, want the last index 2", got)
	}
}

func TestCumulativePanicsLikeCategorical(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", ws)
				}
			}()
			Cumulative(make([]float64, len(ws)), ws)
		}()
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := New(seed).Dirichlet(8, 0.5)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletConcentration(t *testing.T) {
	// High alpha should concentrate near uniform; low alpha should be spiky.
	high := New(29).Dirichlet(16, 100)
	low := New(29).Dirichlet(16, 0.05)
	maxHigh, maxLow := 0.0, 0.0
	for i := range high {
		maxHigh = math.Max(maxHigh, high[i])
		maxLow = math.Max(maxLow, low[i])
	}
	if maxHigh > 0.15 {
		t.Fatalf("high-concentration Dirichlet too spiky: max=%v", maxHigh)
	}
	if maxLow < 0.5 {
		t.Fatalf("low-concentration Dirichlet not spiky enough: max=%v", maxLow)
	}
}

func TestDirichletWeightedMean(t *testing.T) {
	base := []float64{0.7, 0.2, 0.1}
	const n = 5000
	sums := make([]float64, 3)
	r := New(31)
	for i := 0; i < n; i++ {
		p := r.DirichletWeighted(base, 50)
		for j, v := range p {
			sums[j] += v
		}
	}
	for j, b := range base {
		got := sums[j] / n
		if math.Abs(got-b) > 0.02 {
			t.Fatalf("component %d mean %v, want ~%v", j, got, b)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(37)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Fatalf("Gamma(%v) mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(41)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exponential mean %v, want ~1", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategorical32(b *testing.B) {
	r := New(1)
	w := make([]float64, 32)
	for i := range w {
		w[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}
