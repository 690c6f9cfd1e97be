package pvr

import (
	"context"
	"fmt"

	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/privplane"
	"pvr/internal/sigs"
)

// Role is a requester's relationship to the prover for one prefix — the
// α classes of §2.2 that decide which view a disclosure query is granted.
type Role = discplane.Role

// Roles for Query.Role.
const (
	// RoleObserver (any third party) is granted the sealed commitment and
	// its inclusion proof only.
	RoleObserver = discplane.RoleObserver
	// RoleProvider (a neighbor that provided an input route this epoch) is
	// granted the §3.3 single-bit opening for its own route length.
	RoleProvider = discplane.RoleProvider
	// RolePromisee (the neighbor the promise was made to) is granted the
	// full opened vector, the winning input, and the export statement.
	RolePromisee = discplane.RolePromisee
	// RoleAuditor (any third party, when the prover seals with
	// WithZKDisclosure) is granted the sealed commitment plus a
	// zero-knowledge proof that the committed promise holds — no bit is
	// opened. Auditor queries may be anonymous; the proof is its own gate.
	RoleAuditor = discplane.RoleAuditor
)

// Privacy-plane types (internal/privplane): ring-signature identities for
// anonymous provider queries and the zero-knowledge auditor material.
type (
	// RingKey is a participant's ring-signing identity: a dedicated RSA
	// key, separate from its Ed25519 protocol key.
	RingKey = privplane.RingKey
	// RingDirectory maps ASNs to ring public keys the way Registry maps
	// them to signing keys.
	RingDirectory = privplane.Directory
	// VectorView is the auditor-facing zero-knowledge material: the
	// Pedersen commitment vector a seal binds plus the proof that it
	// commits to a well-formed monotone bit vector.
	VectorView = privplane.VectorView
)

// Ring-key constructors (see WithRingKey / WithRingDirectory).
var (
	// GenerateRingKey draws a fresh RSA ring key for an ASN.
	GenerateRingKey = privplane.GenerateRingKey
	// NewRingKey wraps an existing RSA private key as a ring key.
	NewRingKey = privplane.NewRingKey
	// NewRingDirectory builds an empty ring-key directory.
	NewRingDirectory = privplane.NewDirectory
)

// Query selects one on-demand disclosure: which (prefix, epoch), in what
// claimed role. The participant fills in its identity, signs the wire
// query, and verifies the answer; see QueryDisclosure.
type Query struct {
	// Prefix and Epoch select the commitment the query is about.
	Prefix Prefix
	Epoch  uint64
	// Role is the view requested under α (zero value: RolePromisee).
	Role Role
	// Prover, when nonzero, addresses the query to that serving AS: the
	// binding is signed, a different server refuses it, and the answer
	// is cross-checked against it. Leave zero only when the prover is
	// not yet known (a first trust-on-first-use contact).
	Prover ASN
	// Announcement must be set for RoleProvider: the input announcement
	// this participant sent the prover, which the opened bit is checked
	// against (§3.3: N_i verifies b_{|r_i|} = 1 for its own route length).
	Announcement *Announcement
	// Anonymous, for RoleProvider, authenticates the query with a ring
	// signature over Ring instead of this participant's Ed25519 signature:
	// the server learns only "some provider in the ring asked" (anonymity
	// set k = len(Ring)). Requires WithRingKey and a Ring of at least two
	// declared providers including this participant.
	Anonymous bool
	// Ring is the anonymity set for an Anonymous query: ASNs that all
	// provided a route for Prefix this epoch. Order is irrelevant (the
	// wire carries it canonically sorted).
	Ring []ASN
	// Trace, when set, propagates a distributed-trace context with the
	// query so the server's DisclosureServed event joins the caller's
	// chain; left zero, QueryDisclosure mints a fresh one.
	Trace TraceContext
}

// Disclosure is a fetched, fully verified on-demand view: the typed
// result of QueryDisclosure after the wire answer passed the verification
// Pipeline and the seal was cross-checked against the audit network's
// statement store.
type Disclosure struct {
	// Prover is the AS the view discloses for; Role is the granted role.
	Prover ASN
	Role   Role
	// Prefix, Epoch, and Window locate the commitment.
	Prefix Prefix
	Epoch  uint64
	Window uint64
	// Sealed is the authenticated per-prefix commitment (every role).
	Sealed *SealedCommitment
	// Provider is the verified §3.3 provider view (RoleProvider only).
	Provider *EngineProviderView
	// Promisee is the verified §3.3 promisee view (RolePromisee only).
	Promisee *EnginePromiseeView
	// Vector is the verified zero-knowledge opening (RoleAuditor only):
	// the Pedersen vector matched the sealed digest and its proof of
	// well-formedness and monotonicity verified — the promise holds.
	Vector *VectorView
	// KeyPinned reports that the prover's key was pinned
	// trust-on-first-use during this query (private registries only).
	KeyPinned bool
	// Trace is the distributed-trace context the granted view carried —
	// the SEAL's trace (minted where the sealed announcement was ingested),
	// not the query's, so it links the fetched state back to its origin.
	Trace TraceContext
}

// RequestDisclosure fetches and verifies this participant's promisee view
// of (prefix, epoch) from the disclosure query plane at peer (an address
// dialed through the participant's transport; the peer serves it via
// WithDiscloseListen). It is QueryDisclosure with Role RolePromisee — the
// everyday "prove to me you kept your promise for this prefix" call.
func (p *Participant) RequestDisclosure(ctx context.Context, peer string, pfx Prefix, epoch uint64) (*Disclosure, error) {
	return p.QueryDisclosure(ctx, peer, Query{Prefix: pfx, Epoch: epoch, Role: RolePromisee})
}

// RequestAnonymousDisclosure fetches and verifies this participant's §3.3
// provider view WITHOUT identifying itself: the query is authenticated by
// a ring signature over ring (every member a declared provider for pfx
// this epoch, this participant among them), so the serving prover learns
// only that some member of the ring asked — anonymity set k = len(ring).
// Requires WithRingKey; ann is the input announcement this participant
// sent the prover, whose route length selects the opened bit.
func (p *Participant) RequestAnonymousDisclosure(ctx context.Context, peer string, pfx Prefix, epoch uint64, ring []ASN, ann *Announcement) (*Disclosure, error) {
	return p.QueryDisclosure(ctx, peer, Query{
		Prefix: pfx, Epoch: epoch, Role: RoleProvider,
		Anonymous: true, Ring: ring, Announcement: ann,
	})
}

// RequestAuditProof fetches and verifies a zero-knowledge opening of
// (prefix, epoch) as a third party: the sealed commitment plus a proof
// that the committed promise holds, with no bit opened. The serving
// prover must seal with WithZKDisclosure.
func (p *Participant) RequestAuditProof(ctx context.Context, peer string, pfx Prefix, epoch uint64) (*Disclosure, error) {
	return p.QueryDisclosure(ctx, peer, Query{Prefix: pfx, Epoch: epoch, Role: RoleAuditor})
}

// QueryDisclosure runs one on-demand disclosure query against the plane
// at peer: dial, send the signed DISCLOSE, and verify whatever comes
// back. A granted view is piped through the verification Pipeline
// (banlist-checked, signature-cached) and its shard seal is fed to the
// participant's Auditor — a fetched seal that conflicts with what gossip
// already holds is equivocation evidence, convicted and ledgered before
// this returns with an error matching ErrConvicted. Denials surface as
// ErrAccessDenied (α refused) or ErrNotFound (unknown prefix or epoch).
//
// When the participant runs a private registry (no WithRegistry) and does
// not yet know the prover's key, the view's key is verified against the
// full chain and pinned trust-on-first-use, exactly like the BGP path;
// with a shared out-of-band registry, unknown provers are rejected.
func (p *Participant) QueryDisclosure(ctx context.Context, peer string, q Query) (*Disclosure, error) {
	role := q.Role
	if role == 0 {
		role = RolePromisee
	}
	if role == RoleProvider && q.Announcement == nil {
		return nil, errConfigf("query", "RoleProvider requires Query.Announcement (the input route to check the opened bit against)")
	}
	if q.Anonymous {
		if role != RoleProvider {
			return nil, errConfigf("query", "Anonymous queries carry only RoleProvider (the auditor role is anonymous by construction)")
		}
		if p.ringKey == nil {
			return nil, errConfigf("query", "Anonymous queries require WithRingKey")
		}
		if len(q.Ring) < 2 {
			return nil, errConfigf("query", "Anonymous queries need a ring of at least 2 providers, got %d", len(q.Ring))
		}
	}
	conn, err := p.transport.Dial(ctx, peer)
	if err != nil {
		return nil, wrapErr("query", err)
	}
	defer conn.Close()

	qtc := q.Trace
	if qtc.IsZero() {
		qtc = obs.NewTraceContext()
	}
	var view *discplane.View
	if q.Anonymous {
		ring, rerr := privplane.CanonicalRing(q.Ring)
		if rerr != nil {
			return nil, errKind(KindConfig, "query", rerr)
		}
		aq := &discplane.AnonQuery{
			Prover: q.Prover, Epoch: q.Epoch, Prefix: q.Prefix,
			Position: uint32(q.Announcement.Route.PathLen()),
			Ring:     ring, Trace: qtc,
		}
		if err := aq.Sign(p.priv, p.ringKey); err != nil {
			return nil, wrapErr("query", err)
		}
		if view, err = discplane.FetchAnonContext(ctx, conn, aq); err != nil {
			return nil, wrapErr("query", err)
		}
	} else {
		dq := &discplane.Query{Requester: p.asn, Prover: q.Prover, Role: role, Epoch: q.Epoch, Prefix: q.Prefix, Trace: qtc}
		if err := dq.Sign(p.signer); err != nil {
			return nil, wrapErr("query", err)
		}
		if view, err = discplane.FetchContext(ctx, conn, dq); err != nil {
			return nil, wrapErr("query", err)
		}
	}
	p.queriesSent.Inc()
	seal := view.Sealed.Seal
	prover := seal.Prover
	if q.Prover != 0 && prover != q.Prover {
		return nil, errKind(KindVerification, "query",
			fmt.Errorf("queried %s, answered with a seal from %s", q.Prover, prover))
	}
	if p.auditor.Convicted(prover) {
		return nil, errKind(KindConvicted, "query", fmt.Errorf("%s stands convicted by audit", prover))
	}

	// Resolve the verification registry: the participant's own, or — on a
	// private trust-on-first-use registry meeting this prover for the
	// first time — a scratch registry holding the view's candidate key,
	// committed only after the whole chain verifies (the same rule as the
	// BGP session path: a shared PKI is never written from peer input).
	reg := p.reg
	var pinned sigs.PublicKey
	if _, lerr := p.reg.Lookup(prover); lerr != nil {
		if p.cfg.registry != nil {
			return nil, errKind(KindVerification, "query",
				fmt.Errorf("no key for %s in the shared registry (trust-on-first-use is disabled when the PKI is out-of-band)", prover))
		}
		if len(view.Key) == 0 {
			return nil, errKind(KindVerification, "query", fmt.Errorf("no key for %s and the view carries none", prover))
		}
		k, kerr := sigs.UnmarshalPublicKey(view.Key)
		if kerr != nil {
			return nil, errKind(KindVerification, "query", kerr)
		}
		// Trust-on-first-use authenticates the seal chain rooted in the
		// candidate key; gated views whose material is co-signed by third
		// parties (a promisee view's winning announcement) additionally
		// need those signers resolvable, which is the paper's out-of-band
		// PKI assumption — without it the check fails typed, not silently.
		scratch := sigs.NewRegistry()
		scratch.Register(prover, k)
		pinned, reg = k, scratch
	}

	d := &Disclosure{
		Prover: prover, Role: role,
		Prefix: q.Prefix, Epoch: seal.Epoch, Window: seal.Window,
		Sealed: view.Sealed,
		Trace:  view.Trace,
	}
	// Every fetched view goes through the verification Pipeline: the same
	// banlist gate, seal-signature memoization, and §3.3 content checks
	// the in-process path uses. The seal memo is shared across this
	// participant's queries (not with the TOFU scratch path, whose
	// verdicts are registry-relative), so auditing many prefixes of one
	// prover pays each distinct shard-seal signature check once.
	pl := engine.NewPipeline(reg, 1)
	defer pl.Close()
	if reg == p.reg {
		pl.ShareSealMemo(p.discSealMemo)
	}
	pl.SetBanlist(p.auditor.Convicted)
	switch role {
	case RoleProvider:
		pv := &engine.ProviderView{Sealed: view.Sealed, Position: int(view.Position), Opening: *view.Opening}
		pl.SubmitProvider(pv, *q.Announcement)
		d.Provider = pv
	case RolePromisee:
		mv := &engine.PromiseeView{Sealed: view.Sealed, Openings: view.Openings, Winner: view.Winner, Export: *view.Export}
		if view.ExportOpening != nil {
			mv.ExportOpening = *view.ExportOpening
		}
		pl.SubmitPromisee(mv, p.asn)
		d.Promisee = mv
	case RoleAuditor:
		sc := view.Sealed
		vv := &VectorView{Commitments: view.ZKCommitments, Proof: view.ZKProof}
		pl.Submit(q.Prefix, prover, func(ver sigs.Verifier) error {
			if err := sc.Verify(ver); err != nil {
				return err
			}
			// The seal chain is authenticated; now the zero-knowledge half:
			// the Pedersen vector must digest to what the leaf binds, and
			// its well-formedness/monotonicity proof must verify under the
			// seal-bound context.
			return p.priv.VerifyAuditorProof(sc, vv)
		})
		d.Vector = vv
	default:
		sc := view.Sealed
		pl.Submit(q.Prefix, prover, func(ver sigs.Verifier) error { return sc.Verify(ver) })
	}
	res := pl.Drain()
	if verr := res[0].Err; verr != nil {
		// A *core.Violation stays reachable through Unwrap: catching the
		// prover breaking its promise is a successful verification outcome
		// for the protocol, reported as the error it is.
		return nil, errKind(KindVerification, "query", verr)
	}
	if pinned != nil {
		p.reg.Register(prover, pinned)
		d.KeyPinned = true
		fp := pinned.Fingerprint()
		p.cfg.logf("pvr: %s pinned %s's key (trust-on-first-use via disclosure query, fp %x…)", p.asn, prover, fp[:6])
	}
	// Cross-check the fetched seal against the audit network: the seal
	// this server showed us must be the same statement it gossips. A
	// conflict is transferable evidence — judged, convicted, and ledgered
	// by ObserveStatement before we report it. The view's trace (the
	// seal's own chain) travels with the statement so a conviction here
	// stitches back to the announcement that produced the seal.
	conflict, aerr := p.auditor.ObserveStatementTraced(seal.Epoch, seal.Statement(), view.Trace)
	if aerr != nil {
		return nil, wrapErr("query", aerr)
	}
	if conflict != nil {
		return nil, errKind(KindConvicted, "query",
			fmt.Errorf("fetched seal for %s equivocates with gossip on %s: %s convicted", q.Prefix, conflict.Topic, prover))
	}
	return d, nil
}

// Announce signs an input route offered to a neighboring prover for an
// epoch (the route's first AS must be this participant): a provider
// announces through this, the prover ingests via
// Submit(AnnounceEvent(...)), and the provider later audits the prover
// with a RoleProvider QueryDisclosure carrying this same announcement.
func (p *Participant) Announce(to ASN, epoch uint64, r Route) (Announcement, error) {
	a, err := core.NewAnnouncement(p.signer, p.asn, to, epoch, r)
	return a, wrapErr("announce", err)
}

// DiscloseAddr returns the bound disclosure query-plane address ("" when
// not serving).
func (p *Participant) DiscloseAddr() string {
	if p.discLis == nil {
		return ""
	}
	return p.discLis.Addr()
}
