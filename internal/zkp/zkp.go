// Package zkp implements the paper's second strawman (§3.1): verifying the
// minimum-operator promise with general zero-knowledge proofs instead of
// PVR's selective openings. It is a real, sound construction — Pedersen
// commitments bG + rH over ristretto255 with Fiat–Shamir OR-composed
// Schnorr proofs (Cramer–Damgård–Schoenmakers) — proving that a committed
// bit vector is (a) bits, (b) monotone, and (c) consistent with a public
// minimum m, without opening anything.
//
// The point of the baseline is the cost curve: proof size and time grow
// linearly in the vector length (the "policy complexity"): 160 bytes and
// three fixed-base scalar multiplications per OR-proof to prove, and one
// multi-scalar multiplication over every branch equation to verify,
// versus PVR's openings at one hash each. That is the paper's "scaling
// concerns as the complexity of policy increases".
//
// The prover multiplies its secret scalars (blinding factors, nonces and
// simulated responses) only by the fixed generators, through package
// ristretto's constant-time tables; its scalar arithmetic is math/big and
// variable-time.
package zkp

import (
	"crypto/rand"
	"crypto/sha512"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"pvr/internal/ristretto"
)

// challengeTag domain-separates every Fiat–Shamir challenge.
const challengeTag = "pvr/zkp/fiat-shamir/v2"

// Commitment is a Pedersen commitment bG + rH in its canonical
// ristretto255 encoding.
type Commitment [ristretto.Size]byte

// Opening is the committed bit and blinding scalar.
type Opening struct {
	Bit bool
	R   ristretto.Scalar
}

// ErrBadProof is returned when verification fails.
var ErrBadProof = errors.New("zkp: proof verification failed")

// Commit commits to a bit.
func Commit(bit bool) (Commitment, Opening, error) {
	r, err := ristretto.RandomScalar()
	if err != nil {
		return Commitment{}, Opening{}, err
	}
	o := Opening{Bit: bit, R: r}
	return o.commitment(), o, nil
}

// commitment computes bG + rH without branching on b.
func (o *Opening) commitment() Commitment {
	var c, bg ristretto.Point
	c.ScalarMultH(&o.R)
	bg.Select(ristretto.NewGeneratorPoint(), ristretto.NewIdentityPoint(), b2i(o.Bit))
	return c.Add(&c, &bg).Bytes()
}

// Verify opens a commitment (used in tests; the ZK path never opens).
func Verify(c Commitment, o Opening) bool { return o.commitment() == c }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BitProof is a Fiat–Shamir OR-proof that a commitment X hides 0 or 1:
// Schnorr transcripts for X = r·H (branch 0) and X − G = r·H (branch 1),
// one real and one simulated, whose challenges split the hash e of the
// statement and both A's. E1 = e − E0 is recomputed, not sent.
type BitProof struct {
	A0, A1 [ristretto.Size]byte // branch commitments, canonical encodings
	E0     ristretto.Scalar     // branch-0 challenge
	Z0, Z1 ristretto.Scalar     // branch responses
}

// BitProofSize is a BitProof's wire size: A0, A1, E0, Z0, Z1.
const BitProofSize = 5 * 32

// proveBit builds the OR-proof for the statement X = dG + rH with
// d = o.Bit, where stmt holds the encodings X is bound by. The real
// branch is b = o.Bit; the other is simulated. Each multiplication by a
// secret scalar goes through a fixed-base table, and which branch is real
// picks values by constant-time selects, never by control flow.
func proveBit(o Opening, ctx []byte, stmt ...[]byte) (*BitProof, error) {
	b := b2i(o.Bit)
	w, err := ristretto.RandomScalar()
	if err != nil {
		return nil, err
	}
	eSim, err := ristretto.RandomScalar()
	if err != nil {
		return nil, err
	}
	zSim, err := ristretto.RandomScalar()
	if err != nil {
		return nil, err
	}
	// Real branch: A = w·H.
	var aReal ristretto.Point
	aReal.ScalarMultH(&w)
	// Simulated branch: X_sim = X − (1−b)·G = (2b−1)·G + r·H, so
	// A_sim = zSim·H − eSim·X_sim = (zSim − eSim·r)·H + (1−2b)·eSim·G.
	var k, gk ristretto.Scalar
	k.Multiply(&eSim, &o.R)
	k.Subtract(&zSim, &k)
	gk.Negate(&eSim)
	subtle.ConstantTimeCopy(1-b, gk[:], eSim[:])
	var aSim, t ristretto.Point
	aSim.ScalarMultH(&k)
	aSim.Add(&aSim, t.ScalarBaseMult(&gk))

	encReal, encSim := aReal.Bytes(), aSim.Bytes()
	p := &BitProof{A0: encSim, A1: encSim}
	subtle.ConstantTimeCopy(1-b, p.A0[:], encReal[:])
	subtle.ConstantTimeCopy(b, p.A1[:], encReal[:])

	e := challenge(ctx, append(stmt, p.A0[:], p.A1[:])...)
	var eReal, zReal ristretto.Scalar
	eReal.Subtract(&e, &eSim)
	zReal.MultiplyAdd(&eReal, &o.R, &w)
	p.E0, p.Z0, p.Z1 = eSim, zSim, zSim
	subtle.ConstantTimeCopy(1-b, p.E0[:], eReal[:])
	subtle.ConstantTimeCopy(1-b, p.Z0[:], zReal[:])
	subtle.ConstantTimeCopy(b, p.Z1[:], zReal[:])
	return p, nil
}

// challenge hashes the context and the fixed-width statement encodings
// with SHA-512 and reduces mod l. ctx names the proof kind and position,
// which fixes how many encodings follow.
func challenge(ctx []byte, elems ...[]byte) ristretto.Scalar {
	h := sha512.New()
	h.Write([]byte(challengeTag))
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(ctx))))
	h.Write(ctx)
	for _, e := range elems {
		h.Write(e)
	}
	var d [64]byte
	h.Sum(d[:0])
	var e ristretto.Scalar
	e.SetUniformBytes(&d)
	return e
}

// MonotoneProof proves, in zero knowledge, that a committed bit vector
// b_1…b_K is monotone non-decreasing and has its first 1 at position Min
// (Min = 0 proves the all-zero vector). It contains one bit-proof per
// position, one bit-proof per adjacent difference, and Schnorr equality
// proofs pinning positions Min-1 and Min to 0 and 1.
type MonotoneProof struct {
	Min        int
	BitProofs  []*BitProof // b_i ∈ {0,1}
	DiffProofs []*BitProof // b_{i+1} - b_i ∈ {0,1}
	// PinZero / PinOne are Schnorr proofs that C_{Min-1} hides 0 and
	// C_Min hides 1 (nil when not applicable).
	PinZero, PinOne *SchnorrProof
}

// SchnorrProof proves knowledge of r with C − vG = r·H for a public v:
// that the commitment C hides v. The challenge is recomputed.
type SchnorrProof struct {
	A [ristretto.Size]byte
	Z ristretto.Scalar
}

// schnorrProofSize is a SchnorrProof's size: A and Z.
const schnorrProofSize = 2 * 32

func proveSchnorr(c Commitment, r *ristretto.Scalar, ctx []byte) (*SchnorrProof, error) {
	w, err := ristretto.RandomScalar()
	if err != nil {
		return nil, err
	}
	var a ristretto.Point
	p := &SchnorrProof{A: a.ScalarMultH(&w).Bytes()}
	e := challenge(ctx, c[:], p.A[:])
	p.Z.MultiplyAdd(&e, r, &w)
	return p, nil
}

// ProveMonotone builds the full proof for committed bits with openings.
// min is the 1-based first set position, or 0 if no bit is set; it must
// match the openings (the prover is honest here — a cheating prover simply
// fails verification).
func ProveMonotone(cs []Commitment, os []Opening, min int, ctx []byte) (*MonotoneProof, error) {
	if len(cs) != len(os) {
		return nil, errors.New("zkp: commitment/opening length mismatch")
	}
	bits, diffs, err := proveBitsAndDiffs(cs, os, ctx, "bit", "diff")
	if err != nil {
		return nil, err
	}
	mp := &MonotoneProof{Min: min, BitProofs: bits, DiffProofs: diffs}
	// Pin the minimum.
	if min > 0 {
		if mp.PinOne, err = proveSchnorr(cs[min-1], &os[min-1].R, ctxFor(ctx, "pin1", min-1)); err != nil {
			return nil, err
		}
		if min > 1 {
			if mp.PinZero, err = proveSchnorr(cs[min-2], &os[min-2].R, ctxFor(ctx, "pin0", min-2)); err != nil {
				return nil, err
			}
		}
	} else if len(cs) > 0 {
		// All-zero vector: pin the last position to 0 (with monotonicity,
		// that pins the whole vector).
		last := len(cs) - 1
		if mp.PinZero, err = proveSchnorr(cs[last], &os[last].R, ctxFor(ctx, "pin0", last)); err != nil {
			return nil, err
		}
	}
	return mp, nil
}

// proveBitsAndDiffs proves each position a bit, and each adjacent
// difference C_{i+1} − C_i (hiding b_{i+1} − b_i with blinding
// r_{i+1} − r_i) a bit: monotone ⟺ every difference ∈ {0,1}.
func proveBitsAndDiffs(cs []Commitment, os []Opening, ctx []byte, bitKind, diffKind string) (bits, diffs []*BitProof, err error) {
	for i := range cs {
		bp, err := proveBit(os[i], ctxFor(ctx, bitKind, i), cs[i][:])
		if err != nil {
			return nil, nil, err
		}
		bits = append(bits, bp)
	}
	for i := 0; i+1 < len(cs); i++ {
		do := Opening{Bit: os[i+1].Bit != os[i].Bit} // monotone honest case: 0→1 diff
		do.R.Subtract(&os[i+1].R, &os[i].R)
		bp, err := proveBit(do, ctxFor(ctx, diffKind, i), cs[i+1][:], cs[i][:])
		if err != nil {
			return nil, nil, err
		}
		diffs = append(diffs, bp)
	}
	return bits, diffs, nil
}

// VerifyMonotone checks the proof against the public commitments and the
// claimed minimum.
func VerifyMonotone(cs []Commitment, mp *MonotoneProof, ctx []byte) error {
	if mp == nil || len(mp.BitProofs) != len(cs) || len(mp.DiffProofs) != max(0, len(cs)-1) {
		return fmt.Errorf("%w: shape", ErrBadProof)
	}
	v, err := newVerifier(cs)
	if err != nil {
		return err
	}
	if err := v.bitsAndDiffs(mp.BitProofs, mp.DiffProofs, ctx, "bit", "diff"); err != nil {
		return err
	}
	switch {
	case mp.Min > 0:
		if mp.Min > len(cs) {
			return fmt.Errorf("%w: min out of range", ErrBadProof)
		}
		if err := v.schnorr("pin-one", mp.PinOne, mp.Min-1, 1, ctxFor(ctx, "pin1", mp.Min-1)); err != nil {
			return err
		}
		if mp.Min > 1 {
			if err := v.schnorr("pin-zero", mp.PinZero, mp.Min-2, 0, ctxFor(ctx, "pin0", mp.Min-2)); err != nil {
				return err
			}
		}
	case len(cs) > 0:
		if err := v.schnorr("pin-zero", mp.PinZero, len(cs)-1, 0, ctxFor(ctx, "pin0", len(cs)-1)); err != nil {
			return err
		}
	}
	return v.check()
}

// Size returns the proof's size in bytes (for the E4 experiment's
// size-scaling series): BitProofSize per bit and diff proof, plus the
// pins.
func (mp *MonotoneProof) Size() int {
	n := (len(mp.BitProofs) + len(mp.DiffProofs)) * BitProofSize
	for _, sp := range []*SchnorrProof{mp.PinZero, mp.PinOne} {
		if sp != nil {
			n += schnorrProofSize
		}
	}
	return n
}

func ctxFor(ctx []byte, kind string, i int) []byte {
	out := append([]byte(nil), ctx...)
	out = append(out, kind...)
	var ib [4]byte
	binary.BigEndian.PutUint32(ib[:], uint32(i))
	return append(out, ib[:]...)
}

// equation is one branch equation z·H = A + e·X of a Σ-protocol, with
// X = C[hi] − C[lo] − g·G (lo < 0: no C[lo] term; g ∈ {0,1}).
type equation struct {
	a      ristretto.Point
	e, z   ristretto.Scalar
	hi, lo int
	g      bool
	// item and what name the proof and equation for error reports.
	item, what string
}

// verifier collects the branch equations of every proof over one
// commitment vector, then checks them all in one multi-scalar
// multiplication.
type verifier struct {
	raw []Commitment
	cs  []ristretto.Point
	eqs []equation
}

func newVerifier(cs []Commitment) (*verifier, error) {
	v := &verifier{raw: cs, cs: make([]ristretto.Point, len(cs))}
	for i := range cs {
		if _, err := v.cs[i].SetCanonicalBytes(cs[i][:]); err != nil {
			return nil, fmt.Errorf("commitment %d: %w: %v", i+1, ErrBadProof, err)
		}
	}
	return v, nil
}

// bitsAndDiffs adds the equations of a vector's bit and difference
// proofs, checked against ProveVector/ProveMonotone's contexts.
func (v *verifier) bitsAndDiffs(bits, diffs []*BitProof, ctx []byte, bitKind, diffKind string) error {
	for i, bp := range bits {
		if err := v.orProof(fmt.Sprintf("bit %d", i+1), bp, i, -1, ctxFor(ctx, bitKind, i)); err != nil {
			return err
		}
	}
	for i, bp := range diffs {
		if err := v.orProof(fmt.Sprintf("diff %d", i+1), bp, i+1, i, ctxFor(ctx, diffKind, i)); err != nil {
			return err
		}
	}
	return nil
}

// orProof adds an OR-proof's two branch equations over X = C[hi] − C[lo]:
// z0·H = A0 + E0·X and z1·H = A1 + E1·(X − G) with E1 = e − E0.
func (v *verifier) orProof(item string, p *BitProof, hi, lo int, ctx []byte) error {
	if p == nil {
		return fmt.Errorf("%s: %w: missing", item, ErrBadProof)
	}
	if !p.E0.IsCanonical() || !p.Z0.IsCanonical() || !p.Z1.IsCanonical() {
		return fmt.Errorf("%s: %w: non-canonical scalar", item, ErrBadProof)
	}
	var a0, a1 ristretto.Point
	if _, err := a0.SetCanonicalBytes(p.A0[:]); err != nil {
		return fmt.Errorf("%s: %w: A0: %v", item, ErrBadProof, err)
	}
	if _, err := a1.SetCanonicalBytes(p.A1[:]); err != nil {
		return fmt.Errorf("%s: %w: A1: %v", item, ErrBadProof, err)
	}
	stmt := [][]byte{v.raw[hi][:]}
	if lo >= 0 {
		stmt = append(stmt, v.raw[lo][:])
	}
	e := challenge(ctx, append(stmt, p.A0[:], p.A1[:])...)
	var e1 ristretto.Scalar
	e1.Subtract(&e, &p.E0)
	v.eqs = append(v.eqs,
		equation{a: a0, e: p.E0, z: p.Z0, hi: hi, lo: lo, item: item, what: "branch 0"},
		equation{a: a1, e: e1, z: p.Z1, hi: hi, lo: lo, g: true, item: item, what: "branch 1"})
	return nil
}

// schnorr adds a pin proof's equation z·H = A + e·(C[i] − val·G).
func (v *verifier) schnorr(item string, p *SchnorrProof, i, val int, ctx []byte) error {
	if p == nil {
		return fmt.Errorf("%s: %w: missing", item, ErrBadProof)
	}
	if !p.Z.IsCanonical() {
		return fmt.Errorf("%s: %w: non-canonical scalar", item, ErrBadProof)
	}
	var a ristretto.Point
	if _, err := a.SetCanonicalBytes(p.A[:]); err != nil {
		return fmt.Errorf("%s: %w: A: %v", item, ErrBadProof, err)
	}
	e := challenge(ctx, v.raw[i][:], p.A[:])
	v.eqs = append(v.eqs, equation{a: a, e: e, z: p.Z, hi: i, lo: -1, g: val == 1, item: item, what: "schnorr equation"})
	return nil
}

// check verifies every collected equation at once. On failure it checks
// them one at a time, only to name the first failing proof.
func (v *verifier) check() error {
	ok, err := v.holds(v.eqs)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	for i := range v.eqs {
		eq := &v.eqs[i]
		if ok, err := v.holds(v.eqs[i : i+1]); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%s: %w: %s", eq.item, ErrBadProof, eq.what)
		}
	}
	return ErrBadProof
}

// holds reports whether Σ ρⱼ(zⱼ·H − Aⱼ − eⱼ·Xⱼ) is the identity for fresh
// random 128-bit weights ρⱼ, which (but for probability 2⁻¹²⁸) holds
// exactly when every equation does. Collecting coefficients per base
// makes it one multi-scalar multiplication over H, G, the commitments,
// and the A's; the A's carry only the 128-bit weights.
func (v *verifier) holds(eqs []equation) (bool, error) {
	rho := make([]byte, 16*len(eqs))
	if _, err := rand.Read(rho); err != nil {
		return false, fmt.Errorf("zkp: batch weights: %w", err)
	}
	nc := len(v.cs)
	points := make([]ristretto.Point, 2+nc+len(eqs))
	scalars := make([]ristretto.Scalar, len(points))
	points[0].Set(ristretto.NewHPoint())
	points[1].Set(ristretto.NewGeneratorPoint())
	copy(points[2:], v.cs)
	h, g, cs := &scalars[0], &scalars[1], scalars[2:2+nc]
	var t ristretto.Scalar
	for j := range eqs {
		eq := &eqs[j]
		w := &scalars[2+nc+j]
		copy(w[:16], rho[16*j:])
		points[2+nc+j].Negate(&eq.a)
		h.MultiplyAdd(w, &eq.z, h)
		t.Multiply(w, &eq.e) // ρe multiplies X = C[hi] − C[lo] − g·G
		cs[eq.hi].Subtract(&cs[eq.hi], &t)
		if eq.lo >= 0 {
			cs[eq.lo].Add(&cs[eq.lo], &t)
		}
		if eq.g {
			g.Add(g, &t)
		}
	}
	var sum ristretto.Point
	sum.VarTimeMultiScalarMult(scalars, points)
	return sum.Equal(ristretto.NewIdentityPoint()), nil
}
