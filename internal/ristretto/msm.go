package ristretto

import "math/bits"

// msmWindow picks the Pippenger window width for n points: minimizes
// windows·(n + 2^c) over the practical range.
func msmWindow(n int) uint {
	switch {
	case n < 8:
		return 3
	case n < 32:
		return 4
	case n < 128:
		return 6
	case n < 512:
		return 7
	case n < 2048:
		return 8
	default:
		return 10
	}
}

// VarTimeMultiScalarMult sets v = Σ sᵢ·Pᵢ by Pippenger's bucket method,
// in variable time: for public inputs only. Scalars and points must have
// equal length (it panics otherwise); scalars need not be reduced. The window count follows the
// widest scalar, so a batch of 128-bit weights (a batch verifier's
// random blinders) pays half the windows of full-width scalars, and the
// narrow scalars of a mixed batch drop out of the upper windows.
func (v *Point) VarTimeMultiScalarMult(scalars []Scalar, points []Point) *Point {
	n := len(points)
	if len(scalars) != n {
		panic("ristretto: VarTimeMultiScalarMult with mismatched lengths")
	}
	var acc Point
	acc.setIdentity()
	if n == 0 {
		return v.Set(&acc)
	}
	limbs := make([][4]uint64, n)
	topBit := 0
	for i := range scalars {
		limbs[i] = scalars[i].limbs()
		topBit = max(topBit, bitLen(&limbs[i]))
	}
	c := msmWindow(n)
	buckets := make([]Point, 1<<c)
	used := make([]bool, 1<<c)

	windows := (uint(topBit) + c - 1) / c
	for w := int(windows) - 1; w >= 0; w-- {
		for i := uint(0); i < c; i++ {
			acc.double(&acc)
		}
		for i := range used {
			used[i] = false
		}
		pos := uint(w) * c
		for i := 0; i < n; i++ {
			d := digit(&limbs[i], pos, c)
			if d == 0 {
				continue
			}
			if !used[d] {
				buckets[d] = points[i]
				used[d] = true
			} else {
				buckets[d].add(&buckets[d], &points[i])
			}
		}
		// Σ j·bucket[j] via the running-sum trick, skipping the empty
		// tail so sparse windows stay cheap.
		var running, windowSum Point
		running.setIdentity()
		windowSum.setIdentity()
		any := false
		for j := len(buckets) - 1; j >= 1; j-- {
			if used[j] {
				running.add(&running, &buckets[j])
				any = true
			}
			if any {
				windowSum.add(&windowSum, &running)
			}
		}
		if any {
			acc.add(&acc, &windowSum)
		}
	}
	return v.Set(&acc)
}

// bitLen returns the bit length of a little-endian 256-bit integer.
func bitLen(k *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if k[i] != 0 {
			return 64*i + 64 - bits.LeadingZeros64(k[i])
		}
	}
	return 0
}

// digit extracts the c-bit window starting at bit position pos.
func digit(limbs *[4]uint64, pos, c uint) uint64 {
	idx := pos / 64
	shift := pos % 64
	if idx >= 4 {
		return 0
	}
	d := limbs[idx] >> shift
	if shift+c > 64 && idx+1 < 4 {
		d |= limbs[idx+1] << (64 - shift)
	}
	return d & ((1 << c) - 1)
}
