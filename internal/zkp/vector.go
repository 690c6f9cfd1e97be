// Vector proofs: the privacy plane's third-party opening. Where
// MonotoneProof (the §3.1 strawman baseline) publishes the minimum m and
// pins it, VectorProof proves only *well-formedness* — every committed
// position hides a bit and the vector is monotone non-decreasing — and
// hides the minimum entirely. That is exactly what a third party is
// entitled to under α: "the promise holds" (the committed vector is a
// valid minimum-operator vector), and nothing about the routes behind it.
//
// The serialized forms here are canonical: every element and scalar is a
// fixed-width canonical encoding, so decode∘encode is the identity on
// valid encodings — the property the wire fuzzers pin.
package zkp

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// ElemSize is the fixed encoding width of one group element or scalar.
const ElemSize = 32

// MaxVectorLen bounds the number of commitments a serialized vector or
// proof may carry, mirroring core.MaxVectorLen so a hostile length field
// cannot drive allocation.
const MaxVectorLen = 1024

// vectorDigestTag domain-separates the commitment-vector digest sealed
// into engine leaves.
const vectorDigestTag = "pvr/zkp/vector-digest/v2"

// VectorProof proves in zero knowledge that a committed bit vector is
// well-formed for the §3.3 minimum operator: each C_i hides a bit, and
// the bits are monotone non-decreasing. Unlike MonotoneProof it reveals
// nothing about where the first 1 is — the verifier learns only "this is
// a valid promise vector".
type VectorProof struct {
	BitProofs  []*BitProof // b_i ∈ {0,1}
	DiffProofs []*BitProof // b_{i+1} - b_i ∈ {0,1}
}

// ProveVector builds the well-formedness proof for committed bits with
// openings. ctx binds the Fiat–Shamir challenges to the caller's context
// (prover identity, prefix, epoch, seal root).
func ProveVector(cs []Commitment, os []Opening, ctx []byte) (*VectorProof, error) {
	if len(cs) != len(os) {
		return nil, errors.New("zkp: commitment/opening length mismatch")
	}
	bits, diffs, err := proveBitsAndDiffs(cs, os, ctx, "vbit", "vdiff")
	if err != nil {
		return nil, err
	}
	return &VectorProof{BitProofs: bits, DiffProofs: diffs}, nil
}

// VerifyVector checks a well-formedness proof against the public
// commitments under the same context the prover used.
func VerifyVector(cs []Commitment, vp *VectorProof, ctx []byte) error {
	if vp == nil || len(vp.BitProofs) != len(cs) || len(vp.DiffProofs) != max(0, len(cs)-1) {
		return fmt.Errorf("%w: shape", ErrBadProof)
	}
	v, err := newVerifier(cs)
	if err != nil {
		return err
	}
	if err := v.bitsAndDiffs(vp.BitProofs, vp.DiffProofs, ctx, "vbit", "vdiff"); err != nil {
		return err
	}
	return v.check()
}

// Size returns the exact serialized size in bytes.
func (vp *VectorProof) Size() int {
	return 4 + 4 + (len(vp.BitProofs)+len(vp.DiffProofs))*BitProofSize
}

// MarshalBinary encodes the proof canonically: bit-proof count u32,
// diff-proof count u32, then each proof's A0, A1, E0, Z0, Z1.
func (vp *VectorProof) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, vp.Size())
	out = binary.BigEndian.AppendUint32(out, uint32(len(vp.BitProofs)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(vp.DiffProofs)))
	for _, bps := range [][]*BitProof{vp.BitProofs, vp.DiffProofs} {
		for _, bp := range bps {
			if bp == nil {
				return nil, errors.New("zkp: nil bit proof")
			}
			out = append(append(append(append(append(out,
				bp.A0[:]...), bp.A1[:]...), bp.E0[:]...), bp.Z0[:]...), bp.Z1[:]...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes MarshalBinary's encoding. It enforces the exact
// length implied by the counts and rejects non-canonical scalars, so the
// encoding round-trips byte for byte. Group elements are checked when the
// proof is verified.
func (vp *VectorProof) UnmarshalBinary(b []byte) error {
	if len(b) < 8 {
		return errors.New("zkp: short proof")
	}
	nBits := int(binary.BigEndian.Uint32(b))
	nDiffs := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	if nBits > MaxVectorLen || nDiffs > MaxVectorLen || nDiffs != max(0, nBits-1) {
		return errors.New("zkp: proof shape out of range")
	}
	if len(b) != (nBits+nDiffs)*BitProofSize {
		return errors.New("zkp: proof length mismatch")
	}
	parse := func(n int) ([]*BitProof, error) {
		out := make([]*BitProof, n)
		for i := range out {
			bp := &BitProof{}
			copy(bp.A0[:], b[0:32])
			copy(bp.A1[:], b[32:64])
			copy(bp.E0[:], b[64:96])
			copy(bp.Z0[:], b[96:128])
			copy(bp.Z1[:], b[128:160])
			if !bp.E0.IsCanonical() || !bp.Z0.IsCanonical() || !bp.Z1.IsCanonical() {
				return nil, errors.New("zkp: non-canonical scalar")
			}
			out[i] = bp
			b = b[BitProofSize:]
		}
		return out, nil
	}
	bits, err := parse(nBits)
	if err != nil {
		return err
	}
	diffs, err := parse(nDiffs)
	if err != nil {
		return err
	}
	vp.BitProofs, vp.DiffProofs = bits, diffs
	return nil
}

// MarshalCommitments encodes a commitment vector canonically: count u32,
// then each element fixed-width.
func MarshalCommitments(cs []Commitment) []byte {
	out := make([]byte, 0, 4+len(cs)*ElemSize)
	out = binary.BigEndian.AppendUint32(out, uint32(len(cs)))
	for _, c := range cs {
		out = append(out, c[:]...)
	}
	return out
}

// UnmarshalCommitments decodes MarshalCommitments' encoding, enforcing the
// exact length implied by the count. Elements are checked when a proof
// over them is verified.
func UnmarshalCommitments(b []byte) ([]Commitment, error) {
	if len(b) < 4 {
		return nil, errors.New("zkp: short commitment vector")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxVectorLen {
		return nil, errors.New("zkp: commitment vector too long")
	}
	if len(b) != n*ElemSize {
		return nil, errors.New("zkp: commitment vector length mismatch")
	}
	out := make([]Commitment, n)
	for i := range out {
		copy(out[i][:], b[i*ElemSize:])
	}
	return out, nil
}

// DigestCommitments returns the digest of a commitment vector that the
// engine folds into its seal leaves: SHA-256 over the tagged canonical
// encoding. A seal covering this digest binds the Pedersen vector to the
// same signature that binds the hash-commitment vector, so a prover that
// seals mismatched vectors leaves transferable evidence.
func DigestCommitments(cs []Commitment) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(vectorDigestTag))
	h.Write(MarshalCommitments(cs))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// CommitBits commits position-wise to a bit vector, returning the
// commitments and openings the vector proofs consume.
func CommitBits(bits []bool) ([]Commitment, []Opening, error) {
	cs := make([]Commitment, len(bits))
	os := make([]Opening, len(bits))
	for i, b := range bits {
		var err error
		if cs[i], os[i], err = Commit(b); err != nil {
			return nil, nil, err
		}
	}
	return cs, os, nil
}
