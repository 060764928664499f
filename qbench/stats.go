package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (NaN when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// metricSet keeps metrics in report order.
type metricSet []metric

func (m *metricSet) add(name string, value float64, unit string, n int) {
	*m = append(*m, metric{name: name, value: value, unit: unit, samples: n})
}

func (m metricSet) get(name string) (metric, bool) {
	for _, x := range m {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}
