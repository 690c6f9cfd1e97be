package ristretto

import "math/big"

// Curve constants, initialized from their RFC 8032 decimal values.
var (
	feD      fe // d = -121665/121666
	feD2     fe // 2d
	feSqrtM1 fe // √-1 = 2^((p-1)/4)
	// feInvSqrtAMinusD is 1/√(a-d) with a = -1 (RFC 9496 §4.1).
	feInvSqrtAMinusD fe
	basePt           Point
)

func feFromDecimal(s string) fe {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("ristretto: bad constant")
	}
	var b [32]byte
	raw := n.Bytes() // big-endian
	for i, v := range raw {
		b[len(raw)-1-i] = v
	}
	var v fe
	if !v.setBytes(&b) {
		panic("ristretto: non-canonical constant")
	}
	return v
}

func init() {
	feD = feFromDecimal("37095705934669439343138083508754565189542113879843219016388785533085940283555")
	feD2.add(&feD, &feD)
	feSqrtM1 = feFromDecimal("19681161376707505956807079304988542015446066515923890162744021073123829784752")
	basePt.x = feFromDecimal("15112221349535400772501151409588531511454012693041857206046113283949847762202")
	basePt.y = feFromDecimal("46316835694926478169428394003475163141307993866256225615783033603165251855960")
	basePt.z = feOne
	basePt.t.mul(&basePt.x, &basePt.y)
	feInvSqrtAMinusD = feFromDecimal("54469307008909316920995813868745141605393597292927456921205312896311721017578")
	var chk, aMinusD fe
	aMinusD.sub(&feZero, &feOne)
	aMinusD.sub(&aMinusD, &feD)
	chk.square(&feInvSqrtAMinusD)
	chk.mul(&chk, &aMinusD)
	if !chk.equal(&feOne) || !basePt.onCurve() {
		panic("ristretto: curve constant sanity check failed")
	}
}

// setIdentity sets p to the neutral element (0 : 1 : 1 : 0).
func (p *Point) setIdentity() *Point {
	p.x = feZero
	p.y = feOne
	p.z = feOne
	p.t = feZero
	return p
}

// neg sets p = -q: (-X : Y : Z : -T).
func (p *Point) neg(q *Point) *Point {
	p.x.neg(&q.x)
	p.y = q.y
	p.z = q.z
	p.t.neg(&q.t)
	return p
}

// add sets p = a + b using the extended-coordinates addition of
// Hisil–Wong–Carter–Dawson 2008 specialized to a = -1.
func (p *Point) add(a, b *Point) *Point {
	var yPlusX1, yMinusX1, yPlusX2, yMinusX2, pp, mm, tt2d, zz2 fe
	yPlusX1.add(&a.y, &a.x)
	yMinusX1.sub(&a.y, &a.x)
	yPlusX2.add(&b.y, &b.x)
	yMinusX2.sub(&b.y, &b.x)
	pp.mul(&yPlusX1, &yPlusX2)
	mm.mul(&yMinusX1, &yMinusX2)
	tt2d.mul(&a.t, &b.t)
	tt2d.mul(&tt2d, &feD2)
	zz2.mul(&a.z, &b.z)
	zz2.add(&zz2, &zz2)

	var e, f, g, h fe
	e.sub(&pp, &mm)
	f.sub(&zz2, &tt2d)
	g.add(&zz2, &tt2d)
	h.add(&pp, &mm)

	p.x.mul(&e, &f)
	p.y.mul(&g, &h)
	p.z.mul(&f, &g)
	p.t.mul(&e, &h)
	return p
}

// double sets p = 2a (dbl-2008-hwcd, a = -1).
func (p *Point) double(a *Point) *Point {
	var xx, yy, zz2, xy, e, g, f, h fe
	xx.square(&a.x)
	yy.square(&a.y)
	zz2.square(&a.z)
	zz2.add(&zz2, &zz2)
	xy.add(&a.x, &a.y)
	e.square(&xy)
	e.sub(&e, &xx)
	e.sub(&e, &yy) // 2XY
	g.sub(&yy, &xx)
	f.sub(&g, &zz2)
	h.neg(&xx)
	h.sub(&h, &yy) // -(XX+YY)

	p.x.mul(&e, &f)
	p.y.mul(&g, &h)
	p.z.mul(&f, &g)
	p.t.mul(&e, &h)
	return p
}

// onCurve checks -x² + y² = z² + d·t²/z²·… in projective form:
// (-X² + Y²)·Z² == Z⁴ + d·X²Y² and X·Y == Z·T.
func (p *Point) onCurve() bool {
	var xx, yy, zz, tz, xy, lhs, rhs, dxy fe
	xx.square(&p.x)
	yy.square(&p.y)
	zz.square(&p.z)
	lhs.sub(&yy, &xx)
	lhs.mul(&lhs, &zz)
	dxy.mul(&xx, &yy)
	dxy.mul(&dxy, &feD)
	rhs.square(&zz)
	rhs.add(&rhs, &dxy)
	if !lhs.equal(&rhs) {
		return false
	}
	xy.mul(&p.x, &p.y)
	tz.mul(&p.t, &p.z)
	return xy.equal(&tz)
}

// setEdwardsBytes decodes a compressed Edwards point (RFC 8032 §5.1.3),
// rejecting non-canonical y, unrecoverable x, and the encoding of -0.
func (p *Point) setEdwardsBytes(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	var b [32]byte
	copy(b[:], in)
	signBit := int(b[31] >> 7)
	b[31] &= 0x7f
	var y fe
	if !y.setBytes(&b) {
		return false
	}

	// x² = (y²-1)/(dy²+1).
	var u, v, x fe
	u.square(&y)
	v.mul(&u, &feD)
	u.sub(&u, &feOne) // u = y² - 1
	v.add(&v, &feOne) // v = dy² + 1
	if !x.sqrtRatio(&u, &v) {
		return false // not a square: invalid point
	}
	if x.isZero() && signBit == 1 {
		return false // -0 is not canonical
	}
	x.condNeg(&x, signBit) // sqrtRatio's root is non-negative

	p.x = x
	p.y = y
	p.z = feOne
	p.t.mul(&x, &y)
	return true
}

// edwardsBytes returns the RFC 8032 compressed encoding of p.
func (p *Point) edwardsBytes() [32]byte {
	var zinv, x, y fe
	zinv.invert(&p.z)
	x.mul(&p.x, &zinv)
	y.mul(&p.y, &zinv)
	out := y.bytes()
	out[31] |= byte(x.isNegative()) << 7
	return out
}
