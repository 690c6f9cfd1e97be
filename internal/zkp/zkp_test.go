package zkp

import (
	"errors"
	"math/big"
	"testing"

	"pvr/internal/ristretto"
)

func commitVector(t *testing.T, bits []bool) ([]Commitment, []Opening) {
	t.Helper()
	cs := make([]Commitment, len(bits))
	os := make([]Opening, len(bits))
	for i, b := range bits {
		c, o, err := Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], os[i] = c, o
	}
	return cs, os
}

func monotone(k, min int) []bool {
	bits := make([]bool, k)
	if min > 0 {
		for i := min - 1; i < k; i++ {
			bits[i] = true
		}
	}
	return bits
}

func TestCommitVerifyOpen(t *testing.T) {
	for _, b := range []bool{false, true} {
		c, o, err := Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(c, o) {
			t.Errorf("bit %v: honest opening rejected", b)
		}
		o.Bit = !o.Bit
		if Verify(c, o) {
			t.Errorf("bit %v: flipped opening accepted", b)
		}
	}
}

func TestCommitHiding(t *testing.T) {
	c1, _, err := Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("two commitments to the same bit are equal")
	}
}

// proveDlogOr and verifyDlogOr prove and check one OR-proof over a
// single commitment.
func proveDlogOr(c Commitment, o Opening, ctx []byte) (*BitProof, error) {
	return proveBit(o, ctx, c[:])
}

func verifyDlogOr(c Commitment, p *BitProof, ctx []byte) error {
	v, err := newVerifier([]Commitment{c})
	if err != nil {
		return err
	}
	if err := v.orProof("bit 1", p, 0, -1, ctx); err != nil {
		return err
	}
	return v.check()
}

func TestBitProofBothValues(t *testing.T) {
	ctx := []byte("test")
	for _, b := range []bool{false, true} {
		c, o, err := Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := proveDlogOr(c, o, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyDlogOr(c, p, ctx); err != nil {
			t.Errorf("bit %v: honest proof rejected: %v", b, err)
		}
		// Wrong context fails (proofs are bound to their position).
		if err := verifyDlogOr(c, p, []byte("other")); err == nil {
			t.Errorf("bit %v: proof accepted under wrong context", b)
		}
	}
}

func TestBitProofSoundness(t *testing.T) {
	// A "commitment" to 2 (= 2G + rH) must not admit a bit proof.
	ctx := []byte("test")
	r, err := ristretto.RandomScalar()
	if err != nil {
		t.Fatal(err)
	}
	var p2, g2 ristretto.Point
	p2.ScalarMultH(&r)
	p2.Add(&p2, g2.ScalarBaseMult(&ristretto.Scalar{2}))
	c := Commitment(p2.Bytes())
	// The prover lies: claims bit 1 with blinding r.
	p, err := proveDlogOr(c, Opening{Bit: true, R: r}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyDlogOr(c, p, ctx); err == nil {
		t.Error("proof for a non-bit accepted")
	}
}

func TestBitProofRejectsSwappedBranches(t *testing.T) {
	ctx := []byte("swap")
	for _, b := range []bool{false, true} {
		c, o, err := Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := proveDlogOr(c, o, ctx)
		if err != nil {
			t.Fatal(err)
		}
		bad := *p
		bad.A0, bad.A1 = p.A1, p.A0
		if err := verifyDlogOr(c, &bad, ctx); err == nil {
			t.Errorf("bit %v: proof with A0 and A1 swapped accepted", b)
		}
	}
}

// plusOrder returns s + l: the same residue, encoded non-canonically.
func plusOrder(s ristretto.Scalar) ristretto.Scalar {
	be := make([]byte, 32)
	for i := range s {
		be[31-i] = s[i]
	}
	n := new(big.Int).Add(new(big.Int).SetBytes(be), ristretto.Order())
	n.FillBytes(be)
	var out ristretto.Scalar
	for i := range out {
		out[i] = be[31-i]
	}
	return out
}

func TestBitProofRejectsNonCanonicalScalars(t *testing.T) {
	ctx := []byte("canon")
	c, o, err := Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proveDlogOr(c, o, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*BitProof){
		"E0 + l": func(b *BitProof) { b.E0 = plusOrder(b.E0) },
		"Z0 + l": func(b *BitProof) { b.Z0 = plusOrder(b.Z0) },
		"Z1 + l": func(b *BitProof) { b.Z1 = plusOrder(b.Z1) },
	} {
		bad := *p
		mutate(&bad)
		// The residues are unchanged, so only the range check stands
		// between this and a second valid encoding of the same proof.
		if err := verifyDlogOr(c, &bad, ctx); !errors.Is(err, ErrBadProof) {
			t.Errorf("%s: proof accepted (err %v)", name, err)
		}
		enc, err := (&VectorProof{BitProofs: []*BitProof{&bad}}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(VectorProof).UnmarshalBinary(enc); err == nil {
			t.Errorf("%s: non-canonical encoding decoded", name)
		}
	}
}

func TestMonotoneProofHonest(t *testing.T) {
	ctx := []byte("epoch-7")
	for _, tc := range []struct{ k, min int }{
		{1, 0}, {1, 1}, {4, 1}, {8, 3}, {8, 8}, {8, 0}, {16, 5},
	} {
		bits := monotone(tc.k, tc.min)
		cs, os := commitVector(t, bits)
		mp, err := ProveMonotone(cs, os, tc.min, ctx)
		if err != nil {
			t.Fatalf("k=%d min=%d: %v", tc.k, tc.min, err)
		}
		if err := VerifyMonotone(cs, mp, ctx); err != nil {
			t.Errorf("k=%d min=%d: honest proof rejected: %v", tc.k, tc.min, err)
		}
		if mp.Size() <= 0 {
			t.Error("proof size not positive")
		}
	}
}

func TestMonotoneProofRejectsNonMonotone(t *testing.T) {
	ctx := []byte("epoch-8")
	bits := []bool{false, true, false, true} // dip
	cs, os := commitVector(t, bits)
	// A cheating prover claims min=2 over a non-monotone vector; the diff
	// proof for the 1->0 drop cannot be made.
	mp, err := ProveMonotone(cs, os, 2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs, mp, ctx); err == nil {
		t.Error("non-monotone vector verified")
	}
}

func TestMonotoneProofRejectsWrongMin(t *testing.T) {
	ctx := []byte("epoch-9")
	bits := monotone(8, 3)
	cs, os := commitVector(t, bits)
	// Claim min=5 although bit 3 is set: pin-zero at position 4 fails
	// (b_4 = 1), or pin-one at 5 succeeds but pin-zero at 4 lies.
	mp, err := ProveMonotone(cs, os, 5, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs, mp, ctx); err == nil {
		t.Error("wrong minimum verified")
	}
	// Claim min=2 although bit 2 is 0.
	mp, err = ProveMonotone(cs, os, 2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs, mp, ctx); err == nil {
		t.Error("too-small minimum verified")
	}
}

func TestMonotoneProofShapeChecks(t *testing.T) {
	ctx := []byte("x")
	bits := monotone(4, 2)
	cs, os := commitVector(t, bits)
	mp, err := ProveMonotone(cs, os, 2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs[:3], mp, ctx); err == nil {
		t.Error("wrong commitment count accepted")
	}
	if err := VerifyMonotone(cs, nil, ctx); err == nil {
		t.Error("nil proof accepted")
	}
	bad := *mp
	bad.Min = 99
	if err := VerifyMonotone(cs, &bad, ctx); err == nil {
		t.Error("out-of-range min accepted")
	}
}

func TestMonotoneProofSizeLinear(t *testing.T) {
	// The E4 claim: proof size grows linearly with vector length.
	ctx := []byte("scale")
	var sizes []int
	for _, k := range []int{4, 8, 16} {
		bits := monotone(k, 2)
		cs, os := commitVector(t, bits)
		mp, err := ProveMonotone(cs, os, 2, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMonotone(cs, mp, ctx); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, mp.Size())
	}
	// Doubling k should roughly double the size (within 25%).
	ratio := float64(sizes[1]) / float64(sizes[0])
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("size growth 4->8 = %.2fx, want ~2x (sizes %v)", ratio, sizes)
	}
	ratio = float64(sizes[2]) / float64(sizes[1])
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("size growth 8->16 = %.2fx, want ~2x (sizes %v)", ratio, sizes)
	}
}

func benchVector32(b *testing.B) ([]Commitment, []Opening, []byte) {
	b.Helper()
	cs, os, err := CommitBits(monotone(32, 17))
	if err != nil {
		b.Fatal(err)
	}
	return cs, os, []byte("bench")
}

func BenchmarkProveVector32(b *testing.B) {
	cs, os, ctx := benchVector32(b)
	for b.Loop() {
		if _, err := ProveVector(cs, os, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyVector32(b *testing.B) {
	cs, os, ctx := benchVector32(b)
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := VerifyVector(cs, vp, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
