// Package ristretto implements the ristretto255 prime-order group
// (RFC 9496) over edwards25519, from first principles: radix-51 field
// arithmetic over GF(2^255-19), extended twisted-Edwards points,
// canonical 32-byte encodings, scalars modulo the group order l, a
// variable-time Pippenger multi-scalar multiplication, and constant-time
// fixed-base tables for the generator G and a second generator H whose
// discrete logarithm base G nobody knows.
//
// Two encodings share one Point type. Bytes, SetCanonicalBytes and Equal
// treat a Point as a ristretto255 element: equal up to the curve's
// 4-torsion, so the group has prime order and no cofactor to clear.
// SetEdwardsBytes and EdwardsBytes speak RFC 8032's compressed Edwards
// encoding for Ed25519 keys and signatures (see package ed25519batch),
// where cofactor handling is the caller's job.
//
// Timing: ScalarBaseMult and ScalarMultH run in time independent of the
// scalar and are the only multiplications meant for secret scalars.
// Everything named VarTime, encoding and decoding, and the math/big
// scalar arithmetic are variable-time and meant for public values.
package ristretto

import (
	"crypto/sha512"
	"crypto/subtle"
	"errors"
	"sync"
)

// Size is the length of a canonical element encoding.
const Size = 32

// Point is a point on edwards25519 in extended homogeneous coordinates
// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z on the twisted Edwards
// curve -x² + y² = 1 + d·x²y² over GF(2^255-19). The zero value is not a
// valid point; start from NewIdentityPoint or a decoder.
type Point struct {
	x, y, z, t fe
}

// hTag seeds the derivation of the second generator H.
const hTag = "pvr/ristretto/pedersen-h/v2"

var errInvalidEncoding = errors.New("ristretto: invalid element encoding")

// NewIdentityPoint returns the neutral element.
func NewIdentityPoint() *Point { return new(Point).setIdentity() }

// NewGeneratorPoint returns the generator G: the Ed25519 base point,
// whose ristretto255 encoding RFC 9496 fixes.
func NewGeneratorPoint() *Point {
	p := basePt
	return &p
}

// NewHPoint returns the second generator H. It is the first valid
// ristretto255 encoding in the SHA-512 stream of hTag and a counter, so
// its discrete logarithm base G is unknown to everyone: Pedersen
// commitments bG + rH are binding.
func NewHPoint() *Point {
	p := hTable().base
	return &p
}

func deriveH() Point {
	var p Point
	for ctr := byte(0); ; ctr++ {
		d := sha512.Sum512(append([]byte(hTag), ctr))
		if _, err := p.SetCanonicalBytes(d[:Size]); err == nil && !p.Equal(NewIdentityPoint()) {
			return p
		}
	}
}

// Set sets v = u.
func (v *Point) Set(u *Point) *Point {
	*v = *u
	return v
}

// Add sets v = p + q.
func (v *Point) Add(p, q *Point) *Point { return v.add(p, q) }

// Negate sets v = -p.
func (v *Point) Negate(p *Point) *Point { return v.neg(p) }

// MultByCofactor sets v = 8·p, mapping any curve point into the prime-order
// subgroup, where Equal to the identity is equality to the identity.
func (v *Point) MultByCofactor(p *Point) *Point {
	v.double(p)
	v.double(v)
	return v.double(v)
}

// Equal reports whether v and u encode the same ristretto255 element
// (RFC 9496 §4.3.3): X₁Y₂ = Y₁X₂ or Y₁Y₂ = X₁X₂.
func (v *Point) Equal(u *Point) bool {
	var a, b fe
	a.mul(&v.x, &u.y)
	b.mul(&v.y, &u.x)
	if a.equal(&b) {
		return true
	}
	a.mul(&v.y, &u.y)
	b.mul(&v.x, &u.x)
	return a.equal(&b)
}

// Bytes returns the canonical ristretto255 encoding of v (RFC 9496
// §4.3.2). Points that differ by 4-torsion encode identically.
func (v *Point) Bytes() [Size]byte {
	var u1, u2, t, invsqrt, den1, den2, zInv fe
	t.add(&v.z, &v.y)
	u1.sub(&v.z, &v.y)
	u1.mul(&u1, &t) // (Z+Y)(Z-Y)
	u2.mul(&v.x, &v.y)
	t.square(&u2)
	t.mul(&t, &u1)
	invsqrt.sqrtRatio(&feOne, &t) // always square for a valid point
	den1.mul(&invsqrt, &u1)
	den2.mul(&invsqrt, &u2)
	zInv.mul(&den1, &den2)
	zInv.mul(&zInv, &v.t)

	var ix, iy, enchanted, x, y, denInv fe
	ix.mul(&v.x, &feSqrtM1)
	iy.mul(&v.y, &feSqrtM1)
	enchanted.mul(&den1, &feInvSqrtAMinusD)
	t.mul(&v.t, &zInv)
	rotate := t.isNegative()
	x.selectFe(&iy, &v.x, rotate)
	y.selectFe(&ix, &v.y, rotate)
	denInv.selectFe(&enchanted, &den2, rotate)
	t.mul(&x, &zInv)
	y.condNeg(&y, t.isNegative())

	var s fe
	s.sub(&v.z, &y)
	s.mul(&s, &denInv)
	s.abs(&s)
	return s.bytes()
}

// SetCanonicalBytes sets v to the element b encodes (RFC 9496 §4.3.1).
// It rejects every non-canonical or invalid encoding: s ≥ p, a negative
// s, a non-square, a negative xy, or y = 0. On error v is unchanged.
func (v *Point) SetCanonicalBytes(b []byte) (*Point, error) {
	if len(b) != Size {
		return nil, errInvalidEncoding
	}
	var sb [Size]byte
	copy(sb[:], b)
	var s fe
	if sb[31]&0x80 != 0 || !s.setBytes(&sb) || s.isNegative() == 1 {
		return nil, errInvalidEncoding
	}
	var ss, u1, u2, u2sq, w, t, invsqrt, denX, denY fe
	ss.square(&s)
	u1.sub(&feOne, &ss) // 1 - s²
	u2.add(&feOne, &ss) // 1 + s²
	u2sq.square(&u2)
	w.square(&u1)
	w.mul(&w, &feD)
	w.neg(&w)
	w.sub(&w, &u2sq) // -(d·u1²) - u2²
	t.mul(&w, &u2sq)
	wasSquare := invsqrt.sqrtRatio(&feOne, &t)
	denX.mul(&invsqrt, &u2)
	denY.mul(&invsqrt, &denX)
	denY.mul(&denY, &w)

	var p Point
	p.x.add(&s, &s)
	p.x.mul(&p.x, &denX)
	p.x.abs(&p.x)
	p.y.mul(&u1, &denY)
	p.z = feOne
	p.t.mul(&p.x, &p.y)
	if !wasSquare || p.t.isNegative() == 1 || p.y.isZero() {
		return nil, errInvalidEncoding
	}
	*v = p
	return v, nil
}

// SetEdwardsBytes sets v to the RFC 8032 compressed Edwards point b,
// rejecting a non-canonical y, an unrecoverable x, and the encoding of
// -0. Unlike SetCanonicalBytes it keeps torsion components: the Ed25519
// batch equation clears them itself.
func (v *Point) SetEdwardsBytes(b []byte) (*Point, error) {
	var p Point
	if !p.setEdwardsBytes(b) {
		return nil, errors.New("ristretto: invalid Edwards point encoding")
	}
	*v = p
	return v, nil
}

// EdwardsBytes returns the RFC 8032 compressed encoding of v.
func (v *Point) EdwardsBytes() [Size]byte { return v.edwardsBytes() }

// ScalarBaseMult sets v = s·G in constant time.
func (v *Point) ScalarBaseMult(s *Scalar) *Point { return gTable().mul(v, s) }

// ScalarMultH sets v = s·H in constant time.
func (v *Point) ScalarMultH(s *Scalar) *Point { return hTable().mul(v, s) }

// VarTimeScalarMult sets v = s·p by double-and-add, in time that depends
// on s: for public scalars only.
func (v *Point) VarTimeScalarMult(s *Scalar, p *Point) *Point {
	q := *p
	k := s.limbs()
	v.setIdentity()
	for i := 255; i >= 0; i-- {
		v.double(v)
		if k[i/64]>>(i%64)&1 == 1 {
			v.add(v, &q)
		}
	}
	return v
}

// fixedBase is a 4-bit fixed-window table for one point P:
// table[i][j] = j·16^i·P, so s·P is the sum of one entry per nibble of s
// and needs no doublings.
type fixedBase struct {
	base  Point
	table [64][16]Point
}

var (
	gTable = sync.OnceValue(func() *fixedBase { return newFixedBase(&basePt) })
	hTable = sync.OnceValue(func() *fixedBase { p := deriveH(); return newFixedBase(&p) })
)

func newFixedBase(p *Point) *fixedBase {
	fb := &fixedBase{base: *p}
	step := *p // 16^i·P
	for i := range fb.table {
		row := &fb.table[i]
		row[0].setIdentity()
		for j := 1; j < 16; j++ {
			row[j].add(&row[j-1], &step)
		}
		step.add(&row[15], &step)
	}
	return fb
}

// mul sets v = s·P. Each nibble of s selects its table entry by a scan
// that reads every entry, so neither the memory access pattern nor the
// additions depend on s.
func (fb *fixedBase) mul(v *Point, s *Scalar) *Point {
	var acc, e Point
	acc.setIdentity()
	for i := range fb.table {
		d := int32(s[i/2]>>(4*(i%2))) & 15
		for j := range fb.table[i] {
			e.Select(&fb.table[i][j], &e, subtle.ConstantTimeEq(int32(j), d))
		}
		acc.add(&acc, &e)
	}
	return v.Set(&acc)
}

// Select sets v = a when cond == 1 and v = b when cond == 0, without
// branching on cond.
func (v *Point) Select(a, b *Point, cond int) *Point {
	v.x.selectFe(&a.x, &b.x, cond)
	v.y.selectFe(&a.y, &b.y, cond)
	v.z.selectFe(&a.z, &b.z, cond)
	v.t.selectFe(&a.t, &b.t, cond)
	return v
}
