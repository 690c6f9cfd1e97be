package ed25519batch

import (
	"math/big"

	"pvr/internal/ristretto"
)

// order is the prime order l of the Ed25519 base-point subgroup. Scalar
// arithmetic rides on math/big: batch verification performs a handful of
// 256-bit modular multiplications per signature, which is noise next to
// the point arithmetic. Variable time is fine here — see the package
// comment.
var order = ristretto.Order()

// scalarFromLE interprets b (little-endian) as an integer; the caller
// reduces mod order where needed.
func scalarFromLE(b []byte) *big.Int {
	rev := make([]byte, len(b))
	for i, v := range b {
		rev[len(b)-1-i] = v
	}
	return new(big.Int).SetBytes(rev)
}

// scalarIsCanonical reports whether the 32-byte little-endian scalar is
// fully reduced (< order), the check Ed25519 verification mandates on
// the signature's s component (RFC 8032 §5.1.7).
func scalarIsCanonical(b []byte) bool {
	if len(b) != 32 {
		return false
	}
	return scalarFromLE(b).Cmp(order) < 0
}
