package pvr_test

// Public-API-only integration test: everything here goes through package
// pvr — no internal/... imports — exercising the Participant lifecycle
// over the in-memory transport: sealed-table advertisement, live churn
// windows with dirty-shard re-sealing, audit gossip, an injected
// equivocation, and the network-wide conviction that follows.

import (
	"context"
	"errors"
	"net/netip"
	"os"
	"testing"
	"time"

	"pvr"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openProvider opens a participant that originates nothing and serves
// nothing: an identity that signs input announcements (Announce) for the
// participants under test. Its key lands in the registry WithRegistry
// shares, or in its own private one.
func openProvider(t *testing.T, asn pvr.ASN, opts ...pvr.Option) *pvr.Participant {
	t.Helper()
	p, err := pvr.Open(context.Background(), append([]pvr.Option{
		pvr.WithASN(asn), pvr.WithTransport(pvr.NewMemTransport()), pvr.WithHoldTime(0),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestParticipantsEndToEndConviction(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mem := pvr.NewMemTransport()

	// A shared out-of-band PKI for the churn provider; A joins it so
	// announcements from the provider verify. B and C start from empty
	// registries and pin A's key trust-on-first-use.
	reg := pvr.NewRegistry()
	provider := openProvider(t, 64700, pvr.WithRegistry(reg))

	pfxs := []pvr.Prefix{
		pvr.MustParsePrefix("203.0.113.0/24"),
		pvr.MustParsePrefix("198.51.100.0/24"),
		pvr.MustParsePrefix("192.0.2.0/24"),
	}

	// A: the origin under test — originates the table, serves BGP and
	// audit gossip. Window 0 keeps sealing deterministic: windows seal
	// only on explicit Flush.
	a, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithOriginate(pfxs...),
		pvr.WithShards(4),
		pvr.WithWindow(0),
		pvr.WithListen("a"),
		pvr.WithGossipListen("ga"),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// B: dials A's BGP session and audits what it learns.
	b, err := pvr.Open(ctx,
		pvr.WithASN(64501),
		pvr.WithTransport(mem),
		pvr.WithPeers("a"),
		pvr.WithGossipListen("gb"),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// C: no BGP session with A at all — it learns of A's misbehaviour
	// purely through audit gossip with B. It shares the out-of-band PKI
	// (so transferred evidence verifies) but has no adjacency to pin from.
	c, err := pvr.Open(ctx,
		pvr.WithASN(64502),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithGossipListen("gc"),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: B learns and verifies A's sealed table.
	waitFor(t, "B to verify A's table", func() bool {
		return b.Stats().RoutesVerified >= uint64(len(pfxs))
	})
	if got := b.Stats().RoutesRejected; got != 0 {
		t.Fatalf("B rejected %d routes before any misbehaviour", got)
	}

	// Phase 2: live churn. The provider announces fresh routes for A's
	// prefixes; each Flush seals a window over only the dirty shards and
	// re-advertises the changed prefixes with fresh seals.
	window0 := a.Stats().Window
	for round := 0; round < 2; round++ {
		for i, pfx := range pfxs[:2] {
			ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
				Prefix:  pfx,
				Path:    pvr.NewPath(provider.ASN(), pvr.ASN(64800+uint32(round)), pvr.ASN(64900+uint32(i))),
				NextHop: netip.MustParseAddr("192.0.2.1"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)); err != nil {
				t.Fatal(err)
			}
		}
		w, err := a.Flush(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if w.DirtyPrefixes != 2 {
			t.Fatalf("window %d: dirty prefixes = %d, want 2", w.Window, w.DirtyPrefixes)
		}
		if len(w.Rebuilt) == 0 || len(w.Rebuilt) >= w.TotalShards {
			t.Fatalf("window %d rebuilt %d/%d shards; want a proper dirty subset",
				w.Window, len(w.Rebuilt), w.TotalShards)
		}
	}
	if got := a.Stats().Window; got != window0+2 {
		t.Fatalf("windows advanced %d -> %d, want +2", window0, got)
	}
	verifiedBeforeConviction := uint64(len(pfxs) + 2 + 2)
	waitFor(t, "B to verify the churn re-advertisements", func() bool {
		return b.Stats().RoutesVerified >= verifiedBeforeConviction
	})

	// Phase 3: B reconciles with A's audit endpoint and holds A's genuine
	// seal statements.
	st, err := b.Reconcile(ctx, "ga")
	if err != nil {
		t.Fatal(err)
	}
	if st.NewStatements == 0 {
		t.Fatal("reconcile with A moved no statements")
	}

	// Phase 4: A equivocates. It signs a second, different payload on one
	// of its own live seal topics — the two-faced statement it would show
	// a different neighbor — and B receives it.
	seals := a.Engine().Seals()
	if len(seals) == 0 {
		t.Fatal("A has no seals")
	}
	genuine := seals[0].Statement()
	forged, err := a.SignStatement(genuine.Topic, append(append([]byte(nil), genuine.Payload...), 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	_, conflict, err := b.Auditor().AddRecord(pvr.AuditRecord{Epoch: seals[0].Epoch, S: forged})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("forged statement on a live topic went undetected")
	}
	if !b.Auditor().Convicted(a.ASN()) {
		t.Fatal("B did not convict A after detecting the equivocation")
	}

	// Phase 5: the conviction spreads network-wide through gossip alone:
	// C reconciles with B and receives the transferable evidence.
	if c.Auditor().Convicted(a.ASN()) {
		t.Fatal("C convicted A before gossiping with anyone")
	}
	st, err = c.Reconcile(ctx, "gb")
	if err != nil {
		t.Fatal(err)
	}
	if st.NewConflicts == 0 {
		t.Fatal("reconcile with B moved no evidence")
	}
	if !c.Auditor().Convicted(a.ASN()) {
		t.Fatal("C did not convict A from gossiped evidence")
	}
	if got := c.Stats().Convictions; got != 1 {
		t.Fatalf("C convictions = %d, want 1", got)
	}

	// Phase 6: a convicted origin's routes are rejected. More churn from
	// A re-advertises with fresh seals; B now refuses them.
	rejected0 := b.Stats().RoutesRejected
	ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
		Prefix:  pfxs[2],
		Path:    pvr.NewPath(provider.ASN(), 64999),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B to reject the convicted origin's routes", func() bool {
		return b.Stats().RoutesRejected > rejected0
	})
	if got := b.Stats().RoutesVerified; got > verifiedBeforeConviction {
		t.Fatalf("B verified %d routes after conviction, want none past %d", got, verifiedBeforeConviction)
	}
}

// TestOpenConfigErrors pins the error taxonomy on the lifecycle paths.
func TestOpenConfigErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := pvr.Open(ctx); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("Open without ASN: %v, want ErrConfig", err)
	}
	if _, err := pvr.Open(ctx, pvr.WithASN(1), pvr.WithChurn(10)); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("Open with churn but no originate: %v, want ErrConfig", err)
	}
	if _, err := pvr.Open(ctx, pvr.WithASN(1), pvr.WithWindow(-1)); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("Open with negative window: %v, want ErrConfig", err)
	}
	// WithStore and WithStoreBackend each name where the durable state
	// lives; honouring one would silently leave the other unwritten.
	if _, err := pvr.Open(ctx, pvr.WithASN(1), pvr.WithStore(t.TempDir()),
		pvr.WithStoreBackend(pvr.NewMemStore())); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("Open with WithStore and WithStoreBackend: %v, want ErrConfig", err)
	}
	// A shared registry that already holds a key for the ASN must not be
	// silently overwritten by a fresh Participant key.
	shared := pvr.NewRegistry()
	held, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	shared.Register(64500, held.Public())
	if _, err := pvr.Open(ctx, pvr.WithASN(64500), pvr.WithRegistry(shared)); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("Open over an ASN with a registered key: %v, want ErrConfig", err)
	}
	// A failed Open must roll back the keys it added, so a shared
	// registry is not poisoned for the retry. The evidence ledger opens
	// after the engine registered the synthetic upstream's key; a file at
	// the ledger's path that is not a v1 ledger fails that step.
	reg := pvr.NewRegistry()
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/ledger", []byte("not a ledger"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pvr.Open(ctx, pvr.WithASN(7), pvr.WithRegistry(reg),
		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24")),
		pvr.WithStore(dir)); err == nil {
		t.Fatal("Open with an unopenable ledger succeeded")
	}
	retry, err := pvr.Open(ctx, pvr.WithASN(7), pvr.WithRegistry(reg),
		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24")), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatalf("retry after failed Open: %v (registry poisoned?)", err)
	}
	retry.Close()

	mem := pvr.NewMemTransport()
	p, err := pvr.Open(ctx, pvr.WithASN(1), pvr.WithTransport(mem), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Reconcile(ctx, "nowhere"); !errors.Is(err, pvr.ErrNotFound) {
		t.Fatalf("Reconcile to unbound address: %v, want ErrNotFound", err)
	}
	var pe *pvr.Error
	if _, err := p.Reconcile(ctx, "nowhere"); !errors.As(err, &pe) || pe.Kind != pvr.KindNotFound {
		t.Fatalf("Reconcile error does not expose Kind via errors.As: %v", err)
	}
}
