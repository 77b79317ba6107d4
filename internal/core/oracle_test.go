package core

import (
	"math/bits"

	"remicss/internal/stats"
)

// The paper's independent mask forms of z(k, M), l(k, M) and d(k, M),
// written out directly from Section IV-A. They are the oracles the model
// kernel (model.go) must reproduce bit-exactly under the zero Correlation.

func maskValues(mask uint32, value func(i int) float64) []float64 {
	var out []float64
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, value(bits.TrailingZeros32(m)))
	}
	return out
}

func maskRisk(s Set, k int, mask uint32) float64 {
	return stats.TailAtLeast(maskValues(mask, func(i int) float64 { return s[i].Risk }), k)
}

func maskLoss(s Set, k int, mask uint32) float64 {
	return stats.TailLess(maskValues(mask, func(i int) float64 { return 1 - s[i].Loss }), k)
}

func maskDelay(s Set, k int, mask uint32) float64 {
	delays := maskValues(s.FullMask(), func(i int) float64 { return s[i].Delay.Seconds() })
	var weighted, pDeliver float64
	for sub := mask; ; sub = (sub - 1) & mask {
		if bits.OnesCount32(sub) >= k {
			p := 1.0
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros32(m)
				if sub&(1<<uint(i)) != 0 {
					p *= 1 - s[i].Loss
				} else {
					p *= s[i].Loss
				}
			}
			if p > 0 {
				weighted += stats.KthSmallest(delays, sub, k) * p
				pDeliver += p
			}
		}
		if sub == 0 {
			break
		}
	}
	return weighted / pDeliver
}
