package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, so the compare tool reads spreads the same
// way the acceptance rule does. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// hist is a lock-free log-linear histogram of non-negative int64 samples
// (nanoseconds or counts): 8 sub-buckets per power of two, so a quantile
// read back is within about 6% of the true sample. Concurrent event loops
// record into one hist; snapshots subtract to give a window's histogram.
type hist struct {
	b [64 * histSub]atomic.Int64
}

const histSub = 8

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 4 // keep the top 4 bits: 1 + 3 sub-bucket bits
	return (e+1)*histSub + int(uint64(v)>>uint(e)) - histSub
}

// histLow is the smallest value mapping to bucket i, and histHigh the
// smallest mapping past it.
func histLow(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	e := i/histSub - 1
	return int64(i%histSub+histSub) << uint(e)
}

func (h *hist) record(v int64) { h.b[histIndex(v)].Add(1) }

// snap copies the current counts.
func (h *hist) snap() []int64 {
	out := make([]int64, len(h.b))
	for i := range h.b {
		out[i] = h.b[i].Load()
	}
	return out
}

// histDelta is end - start, bucket by bucket.
func histDelta(start, end []int64) []int64 {
	out := make([]int64, len(end))
	for i := range end {
		out[i] = end[i] - start[i]
	}
	return out
}

// histQuantile reads the q-quantile from bucket counts (bucket midpoint);
// 0 when empty.
func histQuantile(counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			lo := histLow(i)
			hi := histLow(i + 1)
			return float64(lo+hi-1) / 2
		}
	}
	return 0
}

// histMax is the upper edge of the highest non-empty bucket.
func histMax(counts []int64) float64 {
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			return float64(histLow(i+1) - 1)
		}
	}
	return 0
}

func histCount(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}
