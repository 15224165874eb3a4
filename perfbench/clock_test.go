package main

import (
	"math"
	"testing"
	"time"
)

func TestRefClockScaleUsesSamplesInTheInterval(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &refClock{}
	// Ten samples at the reference time, then ten at twice it (half the clock).
	for i := range 20 {
		d := refBasketSeconds
		if i >= 10 {
			d *= 2
		}
		c.at = append(c.at, at(20*i))
		c.dur = append(c.dur, d)
	}
	for _, tc := range []struct {
		name   string
		t0, t1 time.Time
		want   float64
	}{
		{"fast half", at(0), at(190), 1},
		{"slow half", at(200), at(390), 0.5},
		// Too few samples inside: the latest refMinSamples before t1.
		{"short interval", at(385), at(386), 0.5},
		{"short interval at the edge", at(225), at(250), 0.5},
		{"before the slow half", at(150), at(151), 1},
	} {
		if got := c.scale(tc.t0, tc.t1); got != tc.want {
			t.Errorf("%s: scale %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRefClockStopsOnClose(t *testing.T) {
	c := startRefClock()
	c.close() // returns only once the sampler has exited
	n := len(c.at)
	if n < refMinSamples || len(c.dur) != n {
		t.Fatalf("%d sample times and %d durations, want at least %d of each", n, len(c.dur), refMinSamples)
	}
	if f := c.scale(c.at[0], c.at[n-1]); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("scale %v over the samples taken", f)
	}
}
