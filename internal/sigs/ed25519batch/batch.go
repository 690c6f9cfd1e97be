// Package ed25519batch implements batch verification of Ed25519
// signatures on package ristretto's edwards25519 arithmetic: a
// variable-time Pippenger multi-scalar multiplication evaluating the
// cofactored batch equation
//
//	[8]( [Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢhᵢ]Aᵢ ) == O
//
// with independent random 128-bit blinders zᵢ. Amortized across a batch
// the multi-scalar multiplication costs a small constant number of point
// additions per signature, versus a full double-scalar multiplication
// for an individual verification — this is what makes §3.8-style bulk
// verification of receipts, exports, and seals cheap.
//
// Everything here is verification of public data, so the arithmetic is
// deliberately variable-time; do not reuse it for signing or key
// operations.
package ed25519batch

import (
	"crypto/rand"
	"crypto/sha512"
	"errors"
	"math/big"

	"pvr/internal/ristretto"
)

// PublicKey is a parsed, decompressed Ed25519 verification key, cached
// so a key checked thousands of times per epoch pays its point
// decompression once.
type PublicKey struct {
	raw [32]byte
	neg ristretto.Point // -A, the form the batch equation consumes
}

// ParsePublicKey decompresses a 32-byte Ed25519 public key.
func ParsePublicKey(raw []byte) (*PublicKey, error) {
	if len(raw) != 32 {
		return nil, errors.New("ed25519batch: public key must be 32 bytes")
	}
	var pk PublicKey
	copy(pk.raw[:], raw)
	var a ristretto.Point
	if _, err := a.SetEdwardsBytes(raw); err != nil {
		return nil, errors.New("ed25519batch: invalid public key point")
	}
	pk.neg.Negate(&a)
	return &pk, nil
}

// Item is one signature to verify: a parsed key, the message, and the
// 64-byte signature.
type Item struct {
	Key *PublicKey
	Msg []byte
	Sig []byte
}

// Verify checks a batch of Ed25519 signatures against the cofactored
// batch equation
//
//	[8]( [Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢhᵢ]Aᵢ ) == O
//
// with fresh random 128-bit blinders zᵢ. It returns (true, -1) when
// every signature passes. On failure it returns (false, i) where i is
// the index of a structurally malformed item (bad length, non-canonical
// s, undecodable R), or (false, -1) when the equation itself failed and
// the caller should bisect to locate the offender.
//
// Semantics: acceptance here is the cofactored criterion. A signature
// deliberately crafted with a small-order component (something only the
// keyholder can produce) may pass batch verification while failing
// crypto/ed25519's cofactorless check; honestly generated signatures
// never differ. Callers who need exact stdlib semantics on rejection
// re-check failures individually, which is what sigs.BatchVerifier's
// bisection does.
func Verify(items []Item) (bool, int) {
	n := len(items)
	if n == 0 {
		return true, -1
	}

	// One batched read for all blinders.
	zbuf := make([]byte, 16*n)
	if _, err := rand.Read(zbuf); err != nil {
		return false, -1
	}

	negR := make([]ristretto.Point, n)
	zs := make([]ristretto.Scalar, n)
	sSum := new(big.Int)                     // Σ zᵢsᵢ mod l
	perKey := make(map[[32]byte]*big.Int, 4) // key -> Σ zᵢhᵢ mod l
	keyPts := make(map[[32]byte]*ristretto.Point, 4)

	tmp := new(big.Int)
	for i, it := range items {
		if it.Key == nil || len(it.Sig) != 64 {
			return false, i
		}
		if !scalarIsCanonical(it.Sig[32:]) {
			return false, i
		}
		var r ristretto.Point
		if _, err := r.SetEdwardsBytes(it.Sig[:32]); err != nil {
			return false, i
		}
		negR[i].Negate(&r)

		z := new(big.Int).SetBytes(zbuf[16*i : 16*i+16])
		if z.Sign() == 0 {
			z.SetInt64(1)
		}
		zs[i].SetBigInt(z)

		// h = SHA512(R ‖ A ‖ M) mod l.
		h := sha512.New()
		h.Write(it.Sig[:32])
		h.Write(it.Key.raw[:])
		h.Write(it.Msg)
		hi := scalarFromLE(h.Sum(nil))
		hi.Mod(hi, order)

		s := scalarFromLE(it.Sig[32:])
		sSum.Add(sSum, tmp.Mul(z, s))

		agg, ok := perKey[it.Key.raw]
		if !ok {
			agg = new(big.Int)
			perKey[it.Key.raw] = agg
			keyPts[it.Key.raw] = &it.Key.neg
		}
		agg.Add(agg, tmp.Mul(z, hi))
	}

	// P = [Σzs]B + Σ [z](-R) + Σ_keys [Σzh](-A)
	var p, t ristretto.Point
	var k ristretto.Scalar
	p.VarTimeMultiScalarMult(zs, negR)
	p.Add(&p, t.ScalarBaseMult(k.SetBigInt(sSum)))
	for kb, agg := range perKey {
		p.Add(&p, t.VarTimeScalarMult(k.SetBigInt(agg), keyPts[kb]))
	}

	// Clear the cofactor and demand the identity: in the prime-order
	// subgroup, ristretto equality to the identity is Edwards equality.
	return p.MultByCofactor(&p).Equal(ristretto.NewIdentityPoint()), -1
}
