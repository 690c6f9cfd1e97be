package privplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/ringsig"
	"pvr/internal/zkp"
)

// vectorCtxTag domain-separates the Fiat–Shamir context binding a vector
// proof to the sealed commitment it opens.
const vectorCtxTag = "pvr/priv/vector-ctx/v1"

// Config parameterizes a Plane.
type Config struct {
	// Engine is the sealed state proofs and anonymous openings are served
	// from. Nil builds a client-only plane (Sign and VerifyAuditorProof
	// work; CheckAnon and VectorView refuse).
	Engine *engine.ProverEngine
	// Dir resolves ring members' public keys. Required.
	Dir *Directory
	// MinRing is the server's minimum acceptable anonymity set (default
	// and floor 2: a smaller ring names its signer).
	MinRing int
	// Obs, when non-nil, exports the plane's pvr_priv_* metric families.
	Obs *obs.Registry
}

// Plane is the privacy plane of one participant: ring-signature signing
// and checking, and zero-knowledge vector proofs over the engine's sealed
// Pedersen vectors, with the proof cached per (prefix, epoch, window).
// Safe for concurrent use.
type Plane struct {
	cfg Config
	met *privMetrics

	mu     sync.Mutex
	proofs map[string]*proofEntry
}

// proofEntry is one cached vector proof. The first caller for a key
// builds it and closes done; callers arriving meanwhile wait on done
// instead of building their own.
type proofEntry struct {
	done chan struct{}
	vv   *VectorView
	err  error
}

// VectorView is the auditor-facing ZK material for one sealed prefix: the
// Pedersen commitment vector the seal's leaf digests, and the proof that
// it commits to a well-formed monotone bit vector. It contains no
// openings — nothing in it reveals any bit.
type VectorView struct {
	Commitments []zkp.Commitment
	Proof       *zkp.VectorProof
}

// New validates the config and builds a plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Dir == nil {
		return nil, fmt.Errorf("privplane: Dir is required")
	}
	if cfg.MinRing < 2 {
		cfg.MinRing = 2
	}
	return &Plane{cfg: cfg, met: newPrivMetrics(cfg.Obs), proofs: make(map[string]*proofEntry)}, nil
}

// Dir returns the plane's ring-key directory.
func (p *Plane) Dir() *Directory { return p.cfg.Dir }

// Sign ring-signs msg as key's holder among members (canonical order).
// The signer must be a ring member with its registered key matching key.
func (p *Plane) Sign(members []aspath.ASN, key *RingKey, msg []byte) (*ringsig.Signature, error) {
	t0 := time.Now()
	r, err := p.cfg.Dir.Ring(members)
	if err != nil {
		return nil, err
	}
	sig, err := r.Sign(msg, key.priv)
	if err != nil {
		return nil, err
	}
	p.met.ringSigns.Inc()
	p.met.ringSignSec.ObserveSince(t0)
	return sig, nil
}

// CheckAnon is the server half of an anonymous provider query: members
// must be a canonical ring of at least MinRing ASNs, every one a declared
// provider for pfx this epoch, and sig a valid ring signature over msg.
// On success the server knows "some provider in this ring asked" and
// nothing more. Failures count as ring rejects.
func (p *Plane) CheckAnon(pfx prefix.Prefix, members []aspath.ASN, msg []byte, sig *ringsig.Signature) error {
	if err := p.checkAnon(pfx, members, msg, sig); err != nil {
		p.met.ringRejects.Inc()
		return err
	}
	p.met.anonQueries.Inc()
	return nil
}

func (p *Plane) checkAnon(pfx prefix.Prefix, members []aspath.ASN, msg []byte, sig *ringsig.Signature) error {
	if p.cfg.Engine == nil {
		return fmt.Errorf("privplane: no engine to serve anonymous queries from")
	}
	if len(members) < p.cfg.MinRing {
		return fmt.Errorf("%w: %d members, need %d", ErrRingTooSmall, len(members), p.cfg.MinRing)
	}
	provs, err := p.cfg.Engine.Providers(pfx)
	if err != nil {
		return err
	}
	declared := make(map[aspath.ASN]bool, len(provs))
	for _, a := range provs {
		declared[a] = true
	}
	for i, m := range members {
		if i > 0 && members[i] <= members[i-1] {
			return fmt.Errorf("%w: members not in canonical order", ErrBadRing)
		}
		if !declared[m] {
			return fmt.Errorf("%w: %s provided no route for %s this epoch", ErrBadRing, m, pfx)
		}
	}
	r, err := p.cfg.Dir.Ring(members)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = r.Verify(msg, sig)
	p.met.ringVerifySec.ObserveSince(t0)
	p.met.ringVerifies.Inc()
	return err
}

// NoteAttributed counts a provider view granted to a NAMED requester —
// the attributed half of the anonymous-vs-attributed split the metrics
// expose.
func (p *Plane) NoteAttributed() { p.met.attrQueries.Inc() }

// VectorView returns (building and caching on first use) the auditor view
// for pfx under the engine's current seal, plus the sealed commitment it
// verifies against. The proof is bound to the seal via VectorCtx, so the
// cache key is (epoch, window, prefix) and a re-seal invalidates by
// changing keys; stale windows are dropped wholesale at transitions.
func (p *Plane) VectorView(pfx prefix.Prefix) (*VectorView, *engine.SealedCommitment, error) {
	if p.cfg.Engine == nil {
		return nil, nil, fmt.Errorf("privplane: no engine to build vector proofs from")
	}
	cs, os, sc, err := p.cfg.Engine.ZKOpenings(pfx)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%d/%d/%s", sc.Seal.Epoch, sc.Seal.Window, pfx)
	p.mu.Lock()
	ent, ok := p.proofs[key]
	if !ok {
		// Window transitions strand old keys; sweep them whenever a new
		// key arrives (cheap: proofs dominate the cost).
		pre := fmt.Sprintf("%d/%d/", sc.Seal.Epoch, sc.Seal.Window)
		for k := range p.proofs {
			if !strings.HasPrefix(k, pre) {
				delete(p.proofs, k)
			}
		}
		ent = &proofEntry{done: make(chan struct{})}
		p.proofs[key] = ent
	}
	p.mu.Unlock()
	if ok {
		<-ent.done
		if ent.err != nil {
			return nil, nil, ent.err
		}
		p.met.proofHits.Inc()
		return ent.vv, sc, nil
	}
	if err := p.buildProof(ent, cs, os, sc); err != nil {
		// Drop the failed entry so a later call retries.
		p.mu.Lock()
		if p.proofs[key] == ent {
			delete(p.proofs, key)
		}
		p.mu.Unlock()
		return nil, nil, err
	}
	return ent.vv, sc, nil
}

// buildProof fills ent and releases its waiters.
func (p *Plane) buildProof(ent *proofEntry, cs []zkp.Commitment, os []zkp.Opening, sc *engine.SealedCommitment) error {
	defer close(ent.done)
	t0 := time.Now()
	vp, err := zkp.ProveVector(cs, os, VectorCtx(sc))
	if err != nil {
		ent.err = err
		return err
	}
	p.met.proofGenSec.ObserveSince(t0)
	p.met.proofsBuilt.Inc()
	ent.vv = &VectorView{Commitments: cs, Proof: vp}
	return nil
}

// VerifyAuditorProof is the third party's check of a ZK opening: the
// commitment vector must digest to exactly what the (already verified)
// sealed commitment's leaf binds, and the Σ-protocol proof must verify
// under the seal-bound context. It deliberately takes the sealed
// commitment rather than raw bytes: callers must have authenticated sc
// (seal signature + Merkle inclusion) first — this check adds "and the
// Pedersen vector the seal vouches for commits to a well-formed monotone
// bit vector", i.e. the promise holds.
func (p *Plane) VerifyAuditorProof(sc *engine.SealedCommitment, vv *VectorView) error {
	if sc == nil || vv == nil || vv.Proof == nil {
		return fmt.Errorf("privplane: incomplete auditor view")
	}
	if !sc.HasZK {
		return fmt.Errorf("privplane: sealed commitment carries no ZK digest")
	}
	if zkp.DigestCommitments(vv.Commitments) != sc.ZKDigest {
		return fmt.Errorf("privplane: commitment vector does not match the sealed digest")
	}
	t0 := time.Now()
	err := zkp.VerifyVector(vv.Commitments, vv.Proof, VectorCtx(sc))
	p.met.proofVerifySec.ObserveSince(t0)
	p.met.proofVerifies.Inc()
	if err != nil {
		return err
	}
	return nil
}

// VectorCtx derives the Fiat–Shamir context a vector proof is bound to:
// the prover, epoch, window, prefix, and shard root of the seal being
// opened. A proof transplanted onto any other sealed commitment fails.
func VectorCtx(sc *engine.SealedCommitment) []byte {
	var buf bytes.Buffer
	buf.WriteString(vectorCtxTag)
	var u8 [8]byte
	binary.BigEndian.PutUint32(u8[:4], uint32(sc.MC.Prover))
	buf.Write(u8[:4])
	binary.BigEndian.PutUint64(u8[:], sc.MC.Epoch)
	buf.Write(u8[:])
	binary.BigEndian.PutUint64(u8[:], sc.Seal.Window)
	buf.Write(u8[:])
	if pb, err := sc.MC.Prefix.MarshalBinary(); err == nil {
		buf.WriteByte(byte(len(pb)))
		buf.Write(pb)
	}
	buf.Write(sc.Seal.Root[:])
	return buf.Bytes()
}
