package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Host time is reported in reference seconds: wall seconds scaled by how fast
// the host ran a fixed basket of work during the same interval. On a shared
// host the speed of a core drifts with other tenants' load, by more than 2x
// within an hour on a 2-vCPU KVM guest, and moves every host timing with it.
// Part of the drift is the core clock; the rest hits code that keeps several
// units busy, as a busy sibling hyperthread or shared-cache pressure would,
// and a dependent integer chain alone does not see it. So the basket mixes the
// kinds of work the simulator does: a dependent integer chain, four
// independent chains, hash-map lookups and sorts. A sampler runs it every
// refPeriod beside the measured code; an interval's scale factor is
// refBasketSeconds over the median basket time sampled inside it, so a host
// time reads as the seconds the interval would take on a host that runs the
// basket in refBasketSeconds.
const (
	refPeriod = 20 * time.Millisecond
	// refBasketSeconds fixes the unit of reference seconds. It is about a
	// third of the basket's median time (~850 us) on a 2-vCPU KVM guest during
	// a spell when the workloads' raw wall was ~3x its quiet figure, so a host
	// time reads roughly as wall on that host when quiet.
	refBasketSeconds = 250e-6
	// refMinSamples is the fewest basket times an interval's factor is the
	// median of; a shorter interval borrows the latest samples before its end.
	refMinSamples = 5
)

// refBasket holds the basket's fixed inputs.
type refBasket struct {
	keys []uint64
	m    map[uint64]uint64
	perm []int
	buf  []int
}

func newRefBasket() *refBasket {
	r := rand.New(rand.NewPCG(1, 2))
	b := &refBasket{m: make(map[uint64]uint64), perm: r.Perm(1024), buf: make([]int, 1024)}
	for i := range 8192 {
		k := r.Uint64()
		b.keys = append(b.keys, k)
		b.m[k] = uint64(i)
	}
	return b
}

// run does the basket's work once and returns a value that depends on all of
// it, so none of it can be dropped.
func (b *refBasket) run() uint64 {
	x := xorshift(88172645463325252, 25_000)
	// Four independent chains: issue width rather than latency.
	p, q, r, s := uint64(1), uint64(2), uint64(3), uint64(4)
	for range 25_000 {
		p ^= p << 13
		p ^= p >> 7
		p ^= p << 17
		q ^= q << 13
		q ^= q >> 7
		q ^= q << 17
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
	}
	x += p + q + r + s
	for i := range 10_000 {
		x += b.m[b.keys[i*7919%len(b.keys)]]
	}
	for range 2 {
		copy(b.buf, b.perm)
		sort.Ints(b.buf)
		x += uint64(b.buf[len(b.buf)/2])
	}
	return x
}

// xorshift runs n xorshift steps from x, each depending on the last.
func xorshift(x uint64, n int) uint64 {
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// refClock samples the basket time from start until close. Its sampler runs
// as one goroutine beside the measured code: with GOMAXPROCS 1 it shares the
// measured code's core, which is the core whose speed it must see.
type refClock struct {
	basket *refBasket
	mu     sync.Mutex
	at     []time.Time // when each sample ended
	dur    []float64   // basket seconds
	sink   uint64      // keeps the baskets' results live
	stop   chan struct{}
	done   chan struct{}
}

func startRefClock() *refClock {
	c := &refClock{basket: newRefBasket(), stop: make(chan struct{}), done: make(chan struct{})}
	for range refMinSamples {
		c.sample()
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

// close stops the sampler and waits for it to exit.
func (c *refClock) close() {
	close(c.stop)
	<-c.done
}

func (c *refClock) sample() {
	t0 := time.Now()
	x := c.basket.run()
	t1 := time.Now()
	c.mu.Lock()
	c.sink += x
	c.at = append(c.at, t1)
	c.dur = append(c.dur, t1.Sub(t0).Seconds())
	c.mu.Unlock()
}

// scale is the factor from wall to reference seconds over [t0, t1].
func (c *refClock) scale(t0, t1 time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t0) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t1) })
	if hi-lo < refMinSamples {
		lo = max(0, hi-refMinSamples)
	}
	return refBasketSeconds / median(c.dur[lo:hi])
}

// since returns the reference seconds from t0 to now, and the wall seconds.
func (c *refClock) since(t0 time.Time) (ref, wall float64) {
	t1 := time.Now()
	wall = t1.Sub(t0).Seconds()
	return wall * c.scale(t0, t1), wall
}
