package zkp

import (
	"bytes"
	"strings"
	"testing"
)

func TestVectorProofRoundTrip(t *testing.T) {
	for _, bits := range [][]bool{
		{false, false, true, true},
		{true, true, true},
		{false, false, false},
		{false, true},
	} {
		cs, os := commitVector(t, bits)
		ctx := []byte("test-ctx")
		vp, err := ProveVector(cs, os, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyVector(cs, vp, ctx); err != nil {
			t.Fatalf("bits %v: %v", bits, err)
		}
		// Wrong context must fail: the proof is bound to its seal.
		if err := VerifyVector(cs, vp, []byte("other-ctx")); err == nil {
			t.Fatalf("bits %v: proof verified under wrong context", bits)
		}
	}
}

func TestVectorProofRejectsNonMonotone(t *testing.T) {
	// 1,0 is not monotone: the diff commitment hides -1, which is neither
	// 0 nor 1, so the prover cannot produce a passing diff proof. Simulate
	// a cheater by proving each vector position honestly but lying in the
	// diff opening.
	cs, os := commitVector(t, []bool{true, false})
	ctx := []byte("ctx")
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyVector(cs, vp, ctx); err == nil {
		t.Fatal("non-monotone vector verified")
	}
}

func TestVectorProofHidesMin(t *testing.T) {
	// Two vectors with different minima must produce proofs of identical
	// shape and size — the proof leaks nothing about where the first 1 is.
	csA, osA := commitVector(t, []bool{false, false, true, true})
	csB, osB := commitVector(t, []bool{true, true, true, true})
	pa, err := ProveVector(csA, osA, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ProveVector(csB, osB, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Size() != pb.Size() {
		t.Fatalf("proof size leaks the minimum: %d != %d", pa.Size(), pb.Size())
	}
	ba, _ := pa.MarshalBinary()
	bb, _ := pb.MarshalBinary()
	if len(ba) != len(bb) {
		t.Fatalf("serialized size leaks the minimum: %d != %d", len(ba), len(bb))
	}
}

func TestVectorProofSerialization(t *testing.T) {
	cs, os := commitVector(t, []bool{false, true, true})
	ctx := []byte("wire")
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != vp.Size() {
		t.Fatalf("Size()=%d but encoding is %d bytes", vp.Size(), len(b))
	}
	var rt VectorProof
	if err := rt.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if err := VerifyVector(cs, &rt, ctx); err != nil {
		t.Fatalf("round-tripped proof does not verify: %v", err)
	}
	b2, err := rt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("proof encoding is not canonical")
	}
	// Truncations and length lies must error, never panic.
	for cut := 0; cut < len(b); cut += ElemSize / 2 {
		var bad VectorProof
		if err := bad.UnmarshalBinary(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestCommitmentVectorSerialization(t *testing.T) {
	cs, _ := commitVector(t, []bool{false, true, true, true})
	b := MarshalCommitments(cs)
	rt, err := UnmarshalCommitments(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalCommitments(rt), b) {
		t.Fatal("commitment encoding is not canonical")
	}
	if DigestCommitments(rt) != DigestCommitments(cs) {
		t.Fatal("digest changed across round trip")
	}
	if _, err := UnmarshalCommitments(b[:len(b)-1]); err == nil {
		t.Fatal("short commitment vector decoded")
	}
}

func TestVectorProofNamesFailingItem(t *testing.T) {
	cs, os := commitVector(t, monotone(8, 4))
	ctx := []byte("name")
	for _, tc := range []struct {
		want   string
		mutate func(*VectorProof)
	}{
		{"diff 6", func(vp *VectorProof) { vp.DiffProofs[5].Z0 = vp.DiffProofs[5].Z1 }},
		{"bit 3", func(vp *VectorProof) { vp.BitProofs[2].E0 = vp.BitProofs[2].Z0 }},
		{"diff 7", func(vp *VectorProof) { vp.DiffProofs[6].A1 = vp.DiffProofs[0].A1 }},
	} {
		vp, err := ProveVector(cs, os, ctx)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(vp)
		err = VerifyVector(cs, vp, ctx)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want+":") {
			t.Errorf("corrupted %s: got error %v", tc.want, err)
		}
	}
}

func TestVectorProofRejectsTransplantedContext(t *testing.T) {
	cs, os := commitVector(t, monotone(6, 3))
	vp, err := ProveVector(cs, os, []byte("seal A"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyVector(cs, vp, []byte("seal B")); err == nil {
		t.Fatal("proof verified under another seal's context")
	}
	// A bit proof over the same commitment, made for the strawman's
	// pinned-minimum proof, does not pass as a vector proof's.
	mp, err := ProveMonotone(cs, os, 3, []byte("seal A"))
	if err != nil {
		t.Fatal(err)
	}
	vp.BitProofs[1] = mp.BitProofs[1]
	if err := VerifyVector(cs, vp, []byte("seal A")); err == nil || !strings.HasPrefix(err.Error(), "bit 2:") {
		t.Fatalf("transplanted bit proof: got error %v", err)
	}
	// Nor does a proof moved to another position.
	vp, err = ProveVector(cs, os, []byte("seal A"))
	if err != nil {
		t.Fatal(err)
	}
	vp.BitProofs[4] = vp.BitProofs[5]
	if err := VerifyVector(cs, vp, []byte("seal A")); err == nil {
		t.Fatal("bit proof moved to another position verified")
	}
}

// FuzzVectorProofDecode: never panic, and whatever decodes re-encodes to
// the identical bytes.
func FuzzVectorProofDecode(f *testing.F) {
	cs, os, err := CommitBits(monotone(3, 2))
	if err != nil {
		f.Fatal(err)
	}
	vp, err := ProveVector(cs, os, []byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	enc, err := vp.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		var vp VectorProof
		if err := vp.UnmarshalBinary(b); err != nil {
			return
		}
		enc, err := vp.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded proof does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatal("proof round trip not stable")
		}
	})
}

// FuzzCommitmentsDecode: never panic, and whatever decodes re-encodes to
// the identical bytes.
func FuzzCommitmentsDecode(f *testing.F) {
	cs, _, err := CommitBits(monotone(3, 2))
	if err != nil {
		f.Fatal(err)
	}
	enc := MarshalCommitments(cs)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		cs, err := UnmarshalCommitments(b)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalCommitments(cs), b) {
			t.Fatal("commitment vector round trip not stable")
		}
	})
}
