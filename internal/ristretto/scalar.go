package ristretto

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math/big"
)

// order is the prime group order
// l = 2^252 + 27742317777372353535851937790883648493.
var order, _ = new(big.Int).SetString(
	"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// Order returns the group order l.
func Order() *big.Int { return new(big.Int).Set(order) }

// Scalar is an integer modulo l in its canonical 32-byte little-endian
// encoding. The zero value is 0. Arithmetic rides on math/big, so it is
// variable-time: a handful of modular operations per proof are noise next
// to the point arithmetic, and big.Int keeps reduction out of hand-rolled
// limb code.
type Scalar [32]byte

var errNonCanonicalScalar = errors.New("ristretto: non-canonical scalar encoding")

// RandomScalar returns a uniformly random scalar from crypto/rand.
func RandomScalar() (Scalar, error) {
	var b [64]byte
	if _, err := rand.Read(b[:]); err != nil {
		return Scalar{}, err
	}
	var s Scalar
	s.SetUniformBytes(&b)
	return s, nil
}

// SetCanonicalBytes sets s from a 32-byte little-endian encoding,
// rejecting values ≥ l. On error s is unchanged.
func (s *Scalar) SetCanonicalBytes(b []byte) (*Scalar, error) {
	if len(b) != len(s) {
		return nil, errNonCanonicalScalar
	}
	var t Scalar
	copy(t[:], b)
	if !t.IsCanonical() {
		return nil, errNonCanonicalScalar
	}
	*s = t
	return s, nil
}

// SetUniformBytes sets s to the 64-byte little-endian integer b reduced
// mod l: how a SHA-512 digest becomes a challenge (RFC 8032, RFC 9496).
func (s *Scalar) SetUniformBytes(b *[64]byte) *Scalar { return s.setBig(leToBig(b[:])) }

// SetBigInt sets s = n mod l.
func (s *Scalar) SetBigInt(n *big.Int) *Scalar { return s.setBig(new(big.Int).Set(n)) }

// IsCanonical reports whether s holds a fully reduced value (< l).
func (s *Scalar) IsCanonical() bool { return leToBig(s[:]).Cmp(order) < 0 }

// Add sets s = a + b mod l.
func (s *Scalar) Add(a, b *Scalar) *Scalar { return s.setBig(new(big.Int).Add(a.big(), b.big())) }

// Subtract sets s = a - b mod l.
func (s *Scalar) Subtract(a, b *Scalar) *Scalar { return s.setBig(new(big.Int).Sub(a.big(), b.big())) }

// Negate sets s = -a mod l.
func (s *Scalar) Negate(a *Scalar) *Scalar { return s.setBig(new(big.Int).Neg(a.big())) }

// Multiply sets s = a·b mod l.
func (s *Scalar) Multiply(a, b *Scalar) *Scalar { return s.setBig(new(big.Int).Mul(a.big(), b.big())) }

// MultiplyAdd sets s = a·b + c mod l.
func (s *Scalar) MultiplyAdd(a, b, c *Scalar) *Scalar {
	n := new(big.Int).Mul(a.big(), b.big())
	return s.setBig(n.Add(n, c.big()))
}

func (s *Scalar) big() *big.Int { return leToBig(s[:]) }

// setBig reduces n (which it may modify) into s.
func (s *Scalar) setBig(n *big.Int) *Scalar {
	if n.Sign() < 0 || n.Cmp(order) >= 0 {
		n.Mod(n, order)
	}
	var be [32]byte
	n.FillBytes(be[:])
	for i := range s {
		s[i] = be[31-i]
	}
	return s
}

// limbs returns s as four little-endian 64-bit limbs.
func (s *Scalar) limbs() [4]uint64 {
	var k [4]uint64
	for i := range k {
		k[i] = binary.LittleEndian.Uint64(s[8*i:])
	}
	return k
}

func leToBig(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i, v := range b {
		be[len(b)-1-i] = v
	}
	return new(big.Int).SetBytes(be)
}
