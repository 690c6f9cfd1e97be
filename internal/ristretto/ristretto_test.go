package ristretto

import (
	"bytes"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"
)

func feFromBig(t *testing.T, n *big.Int) fe {
	t.Helper()
	var b [32]byte
	raw := n.Bytes()
	for i, v := range raw {
		b[len(raw)-1-i] = v
	}
	var v fe
	if !v.setBytes(&b) {
		t.Fatalf("non-canonical input %v", n)
	}
	return v
}

func feToBig(v *fe) *big.Int {
	b := v.bytes()
	rev := make([]byte, 32)
	for i := range b {
		rev[31-i] = b[i]
	}
	return new(big.Int).SetBytes(rev)
}

var prime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

func TestFieldOpsAgainstBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rng, prime)
		b := new(big.Int).Rand(rng, prime)
		fa := feFromBig(t, a)
		fb := feFromBig(t, b)

		var sum, diff, prod, sq fe
		sum.add(&fa, &fb)
		diff.sub(&fa, &fb)
		prod.mul(&fa, &fb)
		sq.square(&fa)

		want := new(big.Int)
		if got := feToBig(&sum); got.Cmp(want.Mod(want.Add(a, b), prime)) != 0 {
			t.Fatalf("add mismatch: %v+%v got %v want %v", a, b, got, want)
		}
		if got := feToBig(&diff); got.Cmp(want.Mod(want.Sub(a, b), prime)) != 0 {
			t.Fatalf("sub mismatch")
		}
		if got := feToBig(&prod); got.Cmp(want.Mod(want.Mul(a, b), prime)) != 0 {
			t.Fatalf("mul mismatch")
		}
		if got := feToBig(&sq); got.Cmp(want.Mod(want.Mul(a, a), prime)) != 0 {
			t.Fatalf("square mismatch")
		}
	}
}

func TestFieldInvert(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := new(big.Int).Rand(rng, prime)
		if a.Sign() == 0 {
			continue
		}
		fa := feFromBig(t, a)
		var inv, prod fe
		inv.invert(&fa)
		prod.mul(&fa, &inv)
		if !prod.equal(&feOne) {
			t.Fatalf("invert(%v) * a != 1", a)
		}
	}
}

func TestSetBytesRejectsNonCanonical(t *testing.T) {
	// p itself, little-endian: 0xed, 0xff … 0x7f.
	var b [32]byte
	b[0] = 0xed
	for i := 1; i < 31; i++ {
		b[i] = 0xff
	}
	b[31] = 0x7f
	var v fe
	if v.setBytes(&b) {
		t.Fatal("setBytes accepted p")
	}
	b[0] = 0xec // p-1 is canonical
	if !v.setBytes(&b) {
		t.Fatal("setBytes rejected p-1")
	}
}

// --- group ---

// isIdentity reports whether p is the Edwards neutral element (0, 1), not
// merely ristretto-equal to it.
func (p *Point) isIdentity() bool {
	return p.x.isZero() && p.y.equal(&p.z)
}

// mulBig computes k·p by double-and-add over the unreduced integer k, the
// reference the scalar-based multiplications are checked against.
func mulBig(p *Point, k *big.Int) *Point {
	var out Point
	out.setIdentity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		out.double(&out)
		if k.Bit(i) == 1 {
			out.add(&out, p)
		}
	}
	return &out
}

func randPoint(rng *mrand.Rand) *Point {
	return mulBig(&basePt, new(big.Int).Rand(rng, order))
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratorEncoding(t *testing.T) {
	want := mustHex(t, "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76")
	if got := NewGeneratorPoint().Bytes(); !bytes.Equal(got[:], want) {
		t.Fatalf("G encodes to %x, want %x (RFC 9496)", got, want)
	}
}

func TestMultiplesOfGenerator(t *testing.T) {
	// RFC 9496 Appendix A.1: encodings of 0·G … 15·G.
	vectors := []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
		"6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
		"94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
		"da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
		"e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
		"f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
		"44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
		"903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
		"02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
		"20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
		"bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
		"e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
		"aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
		"46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
		"e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
	}
	p := NewIdentityPoint()
	for i, v := range vectors {
		want := mustHex(t, v)
		if got := p.Bytes(); !bytes.Equal(got[:], want) {
			t.Fatalf("%d·G encodes to %x, want %x", i, got, want)
		}
		var q Point
		if _, err := q.SetCanonicalBytes(want); err != nil || !q.Equal(p) {
			t.Fatalf("%d·G: decode failed or differs (err %v)", i, err)
		}
		p.Add(p, NewGeneratorPoint())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	pts := []*Point{NewIdentityPoint(), NewGeneratorPoint(), NewHPoint()}
	for i := 0; i < 64; i++ {
		pts = append(pts, randPoint(rng))
	}
	for i, p := range pts {
		enc := p.Bytes()
		var q Point
		if _, err := q.SetCanonicalBytes(enc[:]); err != nil {
			t.Fatalf("point %d: decode(encode(P)) failed: %v", i, err)
		}
		if !q.Equal(p) || q.Bytes() != enc {
			t.Fatalf("point %d: decode(encode(P)) != P", i)
		}
	}
}

// torsion4 returns the four points of order dividing 4: (0,1), (0,-1)
// and (±√-1, 0).
func torsion4() []Point {
	var negOne fe
	negOne.neg(&feOne)
	pts := []Point{{y: feOne, z: feOne}, {y: negOne, z: feOne}, {x: feSqrtM1, z: feOne}, {z: feOne}}
	pts[3].x.neg(&feSqrtM1)
	return pts
}

func TestTorsionInvariance(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	for i := 0; i < 16; i++ {
		p := randPoint(rng)
		want := p.Bytes()
		for j, tor := range torsion4() {
			if !tor.onCurve() {
				t.Fatalf("torsion point %d off curve", j)
			}
			var q Point
			q.Add(p, &tor)
			if q.Bytes() != want || !q.Equal(p) {
				t.Fatalf("P + T%d encodes differently from P", j)
			}
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	// RFC 9496 Appendix A.2, plus the s ≥ p edge cases.
	bad := []string{
		// Non-canonical field encodings (s ≥ p, or bit 255 set).
		"00ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
		"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"0000000000000000000000000000000000000000000000000000000000000080",
		// Negative field elements.
		"0100000000000000000000000000000000000000000000000000000000000000",
		"01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"ed57ffd8c914fb201471d1c3d245ce3c746fcbe63a3679d51b6a516ebebe0e20",
		"c34c4e1826e5d403b78e246e88aa051c36ccf0aafebffe137d148a2bf9104562",
		"c940e5a4404157cfb1628b108db051a8d439e1a421394ec4ebccb9ec92a8ac78",
		"47cfc5497c53dc8e61c91d17fd626ffb1c49e2bca94eed052281b510b1117a24",
		"f1c6165d33367351b0da8f6e4511010c68174a03b6581212c71c0e1d026c3c72",
		"87260f7a2f12495118360f02c26a470f450dadf34a413d21042b43b9d93e1309",
		// Non-square x².
		"26948d35ca62e643e26a83177332e6b6afeb9d08e4268b650f1f5bbd8d81d371",
		"4eac077a713c57b4f4397629a4145982c661f48044dd3f96427d40b147d9742f",
		"de6a7b00deadc788eb6b6c8d20c0ae96c2f2019078fa604fee5b87d6e989ad7b",
		"bcab477be20861e01e4a0e295284146a510150d9817763caf1a6f4b422d67042",
		"2a292df7e32cababbd9de088d1d1abec9fc0440f637ed2fba145094dc14bea08",
		"f4a9e534fc0d216c44b218fa0c42d99635a0127ee2e53c712f70609649fdff22",
		"8268436f8c4126196cf64b3c7ddbda90746a378625f9813dd9b8457077256731",
		"2810e5cbc2cc4d4eece54f61c6f69758e289aa7ab440b3cbeaa21995c2f4232b",
		// Negative xy.
		"3eb858e78f5a7254d8c9731174a94f76755fd3941c0ac93735c07ba14579630e",
		"a45fdc55c76448c049a1ab33f17023edfb2be3581e9c7aade8a6125215e04220",
		"d483fe813c6ba647ebbfd3ec41adca1c6130c2beeee9d9bf065c8d151c5f396e",
		"8a2e1d30050198c65a54483123960ccc38aef6848e1ec8f5f780e8523769ba32",
		"32888462f8b486c68ad7dd9610be5192bbeaf3b443951ac1a8118419d9fa097b",
		"227142501b9d4355ccba290404bde41575b037693cef1f438c47f8fbf35d1165",
		"5c37cc491da847cfeb9281d407efc41e15144c876e0170b499a96a22ed31e01e",
		"445425117cb8c90edcbc7c1cc0e74f747f2c1efa5630a967c64f287792a48a4b",
		// s = -1, which gives y = 0.
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	}
	for _, s := range bad {
		var p Point
		if _, err := p.SetCanonicalBytes(mustHex(t, s)); err == nil {
			t.Errorf("decode accepted invalid encoding %s", s)
		}
	}
	for _, n := range []int{0, 31, 33} {
		var p Point
		if _, err := p.SetCanonicalBytes(make([]byte, n)); err == nil && n != Size {
			t.Errorf("decode accepted a %d-byte encoding", n)
		}
	}
}

func TestOrderTimesPointIsIdentity(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for _, p := range []*Point{NewGeneratorPoint(), NewHPoint(), randPoint(rng)} {
		if q := mulBig(p, order); !q.isIdentity() {
			t.Fatal("l·P is not the identity")
		}
	}
	// A decoded element may carry 4-torsion; l·P is still the ristretto
	// identity.
	for _, tor := range torsion4() {
		var p Point
		p.Add(randPoint(rng), &tor)
		if q := mulBig(&p, order); !q.Equal(NewIdentityPoint()) {
			t.Fatal("l·(P+T) is not the ristretto identity")
		}
	}
}

func TestMSMMatchesNaive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	bound128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for _, n := range []int{1, 2, 5, 33, 150} {
		for _, width := range []string{"128", "full", "mixed"} {
			pts := make([]Point, n)
			scs := make([]Scalar, n)
			want := NewIdentityPoint()
			for i := 0; i < n; i++ {
				pts[i] = *randPoint(rng)
				bound := order
				if width == "128" || (width == "mixed" && i%2 == 0) {
					bound = bound128
				}
				k := new(big.Int).Rand(rng, bound)
				scs[i].SetBigInt(k)
				want.add(want, mulBig(&pts[i], k))
			}
			var got Point
			got.VarTimeMultiScalarMult(scs, pts)
			if got.edwardsBytes() != want.edwardsBytes() {
				t.Fatalf("MSM mismatch at n=%d width=%s", n, width)
			}
		}
	}
}

func TestFixedBaseMatchesVarTime(t *testing.T) {
	rng := mrand.New(mrand.NewSource(17))
	if NewHPoint().Equal(NewGeneratorPoint()) || NewHPoint().Equal(NewIdentityPoint()) {
		t.Fatal("H is G or the identity")
	}
	var lm1 Scalar
	lm1.SetBigInt(new(big.Int).Sub(order, big.NewInt(1)))
	scs := []Scalar{{}, {1}, lm1}
	for i := 0; i < 16; i++ {
		var s Scalar
		scs = append(scs, *s.SetBigInt(new(big.Int).Rand(rng, order)))
	}
	for _, s := range scs {
		var a, b Point
		a.ScalarBaseMult(&s)
		b.VarTimeScalarMult(&s, NewGeneratorPoint())
		if a.edwardsBytes() != b.edwardsBytes() {
			t.Fatalf("ScalarBaseMult(%x) != VarTimeScalarMult", s)
		}
		a.ScalarMultH(&s)
		b.VarTimeScalarMult(&s, NewHPoint())
		if a.edwardsBytes() != b.edwardsBytes() {
			t.Fatalf("ScalarMultH(%x) != VarTimeScalarMult", s)
		}
	}
}

func TestScalarArithmetic(t *testing.T) {
	rng := mrand.New(mrand.NewSource(19))
	big2 := func(s *Scalar) *big.Int { return leToBig(s[:]) }
	mod := func(n *big.Int) *big.Int { return n.Mod(n, order) }
	for i := 0; i < 200; i++ {
		x, y, z := new(big.Int).Rand(rng, order), new(big.Int).Rand(rng, order), new(big.Int).Rand(rng, order)
		var a, b, c, r Scalar
		a.SetBigInt(x)
		b.SetBigInt(y)
		c.SetBigInt(z)
		if big2(r.Add(&a, &b)).Cmp(mod(new(big.Int).Add(x, y))) != 0 {
			t.Fatal("Add")
		}
		if big2(r.Subtract(&a, &b)).Cmp(mod(new(big.Int).Sub(x, y))) != 0 {
			t.Fatal("Subtract")
		}
		if big2(r.Negate(&a)).Cmp(mod(new(big.Int).Neg(x))) != 0 {
			t.Fatal("Negate")
		}
		if big2(r.Multiply(&a, &b)).Cmp(mod(new(big.Int).Mul(x, y))) != 0 {
			t.Fatal("Multiply")
		}
		want := new(big.Int).Mul(x, y)
		if big2(r.MultiplyAdd(&a, &b, &c)).Cmp(mod(want.Add(want, z))) != 0 {
			t.Fatal("MultiplyAdd")
		}
	}
	var s Scalar
	l := order.Bytes()
	le := make([]byte, 32)
	for i, v := range l {
		le[len(l)-1-i] = v
	}
	if _, err := s.SetCanonicalBytes(le); err == nil {
		t.Fatal("SetCanonicalBytes accepted l")
	}
	le[0]--
	if _, err := s.SetCanonicalBytes(le); err != nil {
		t.Fatal("SetCanonicalBytes rejected l-1")
	}
	var wide [64]byte
	for i := range wide {
		wide[i] = 0xff
	}
	s.SetUniformBytes(&wide)
	if big2(&s).Cmp(mod(leToBig(wide[:]))) != 0 || !s.IsCanonical() {
		t.Fatal("SetUniformBytes does not reduce mod l")
	}
}

// FuzzDecode: whatever SetCanonicalBytes accepts must re-encode to the
// identical bytes (the encoding is canonical), and never panic.
func FuzzDecode(f *testing.F) {
	rng := mrand.New(mrand.NewSource(23))
	for i := 0; i < 4; i++ {
		enc := randPoint(rng).Bytes()
		f.Add(enc[:])
	}
	f.Add(make([]byte, 32))
	f.Add(mustHex(f, "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Point
		if _, err := p.SetCanonicalBytes(b); err != nil {
			return
		}
		if enc := p.Bytes(); !bytes.Equal(enc[:], b) {
			t.Fatalf("accepted %x re-encodes to %x", b, enc)
		}
	})
}
