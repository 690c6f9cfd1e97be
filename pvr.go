// Package pvr is the public API of this repository: an implementation of
// private and verifiable routing (PVR) from "Having Your Cake and Eating
// It Too: Routing Security with Privacy Protections" (Gurney, Haeberlen,
// Zhou, Sherr, Loo — HotNets-X, 2011).
//
// PVR lets an autonomous system prove to its neighbors that it kept its
// routing promises ("I exported the shortest route you gave me") without
// revealing anything the routing protocol does not already reveal. The
// unit of deployment is a Participant: one AS that commits to its routing
// table in Merkle-batched shard seals (§3.3, §3.8), re-seals only dirty
// shards under live churn, carries the commitment chain to its BGP peers
// and verifies theirs, gossips seals to catch equivocation (§2.3), and
// serves α-gated disclosures to providers, promisees, and third parties
// (§2.2). The package is Participant, the Options that configure it, and
// the types its methods take and return.
//
// A minimal session: the origin seals its table and serves it over BGP;
// the neighbor dials, pins the origin's key trust-on-first-use, and
// verifies every learned route against the sealed commitment chain.
//
//	mem := pvr.NewMemTransport() // or pvr.TCP()
//	origin, _ := pvr.Open(ctx,
//		pvr.WithASN(64500),
//		pvr.WithTransport(mem),
//		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24")),
//		pvr.WithListen("origin"),
//		pvr.WithStore("/var/lib/pvr"), // optional: survive restarts
//	)
//	defer origin.Close()
//	neighbor, _ := pvr.Open(ctx,
//		pvr.WithASN(64501),
//		pvr.WithTransport(mem),
//		pvr.WithPeers("origin"),
//	)
//	defer neighbor.Close()
//	// ... neighbor.Stats().RoutesVerified counts verified routes;
//	// neighbor.RequestDisclosure fetches a verified promisee view.
//
// See examples/participant for a complete program, cmd/pvrd for the
// daemon, and EXPERIMENTS.md for the reproduction of the paper's
// quantitative claims.
package pvr

import (
	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/gossip"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/updplane"
)

// ASN is an autonomous system number.
type ASN = aspath.ASN

// Prefix is an IP prefix; see ParsePrefix.
type Prefix = prefix.Prefix

// Route is a BGP route with attributes.
type Route = route.Route

// Path is a BGP AS_PATH.
type Path = aspath.Path

// NewPath builds an AS_SEQUENCE path, leftmost (most recent) first.
func NewPath(asns ...ASN) Path { return aspath.New(asns...) }

// ParsePrefix parses CIDR notation ("203.0.113.0/24").
func ParsePrefix(s string) (Prefix, error) { return prefix.Parse(s) }

// MustParsePrefix is ParsePrefix that panics on error, for literals.
func MustParsePrefix(s string) Prefix { return prefix.MustParse(s) }

// Announcement is a provider's signed input route (§3.2); see
// Participant.Announce and AnnounceEvent.
type Announcement = core.Announcement

// Statement is a signed gossip utterance (for PVR: a shard seal) by its
// origin on a topic; see Participant.SignStatement.
type Statement = gossip.Statement

// Registry maps ASNs to verification keys; see WithRegistry.
type Registry = sigs.Registry

// NewRegistry creates an empty key registry, for sharing one out-of-band
// PKI among participants.
var NewRegistry = sigs.NewRegistry

// Audit-network types (Participant.Auditor, Participant.Reconcile). An
// Auditor keeps an epoch-indexed statement store, reconciles it with
// peers by anti-entropy, persists confirmed equivocation evidence to the
// participant's ledger, and maintains the convicted-AS set.
type (
	// Auditor is one node of the audit network.
	Auditor = auditnet.Auditor
	// AuditRecord is a signed statement filed under its epoch, the unit
	// the network disseminates.
	AuditRecord = auditnet.Record
	// AuditStats reports what one anti-entropy exchange moved.
	AuditStats = auditnet.Stats
)

// Engine types (Participant.Engine, Disclosure). The Engine is the
// sharded multi-prefix prover: hash-sharded per-prefix state and one
// Merkle-batched commitment signature per shard at each seal window.
type (
	// Engine is the sharded multi-prefix prover.
	Engine = engine.ProverEngine
	// SealedCommitment is a per-prefix commitment authenticated by a shard
	// seal plus inclusion proof instead of its own signature.
	SealedCommitment = engine.SealedCommitment
	// EngineProviderView is the engine's §3.3 disclosure to a provider.
	EngineProviderView = engine.ProviderView
	// EnginePromiseeView is the engine's §3.3 disclosure to the promisee.
	EnginePromiseeView = engine.PromiseeView
)

// Update-plane types (Participant.Submit, Participant.Flush). Events are
// applied through the BGP RIB decision process, and each commitment
// window re-seals only the dirty shards — the §3.8 batching argument
// applied to continuous churn.
type (
	// UpdateEvent is one feed item (announce or withdraw).
	UpdateEvent = updplane.Event
	// UpdateWindow reports one sealed commitment window.
	UpdateWindow = updplane.WindowResult
	// UpdatePlaneStats is a snapshot of plane counters and seal-latency
	// quantiles.
	UpdatePlaneStats = updplane.Stats
)

// AnnounceEvent and WithdrawEvent build the feed items Participant.Submit
// takes.
var (
	AnnounceEvent = updplane.AnnounceEvent
	WithdrawEvent = updplane.WithdrawEvent
)
