package pvr_test

// Public-API-only integration test of the disclosure query plane: the
// α-gated DISCLOSE/VIEW/DENY protocol end to end over both the TCP and
// in-memory transports. A provider and the promisee fetch and verify
// their views; a third party asking for a provider view is denied with
// ErrAccessDenied; and a fetched seal that conflicts with what gossip
// already holds becomes equivocation evidence with a ledger conviction.

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"pvr"
)

func TestDisclosureQueryPlaneOverTCP(t *testing.T) {
	testDisclosureQueryPlane(t, func() pvr.Transport { return pvr.TCP() }, "127.0.0.1:0")
}

func TestDisclosureQueryPlaneOverMem(t *testing.T) {
	testDisclosureQueryPlane(t, func() pvr.Transport { return pvr.NewMemTransport() }, "disc-a")
}

func testDisclosureQueryPlane(t *testing.T, newTransport func() pvr.Transport, listenAddr string) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := newTransport()

	// A shared out-of-band PKI: every party can authenticate to A's
	// disclosure plane, and A's seals verify everywhere.
	reg := pvr.NewRegistry()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	// The promisee keeps a durable store, so its evidence ledger — and
	// the conviction it records — outlives the process. Its key outlives
	// it too, the way a daemon reloads its key file.
	promiseeStore := t.TempDir()
	promiseeKey, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}

	// A: the prover under audit. It originates the prefix, serves the
	// disclosure query plane, and its α names only 64502 as promisee.
	a, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(tr),
		pvr.WithRegistry(reg),
		pvr.WithOriginate(pfx),
		pvr.WithShards(4),
		pvr.WithWindow(0),
		pvr.WithHoldTime(0),
		pvr.WithDiscloseListen(listenAddr),
		pvr.WithPromisees(64502),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := a.DiscloseAddr()
	if addr == "" {
		t.Fatal("no bound disclosure address")
	}

	open := func(asn pvr.ASN, opts ...pvr.Option) *pvr.Participant {
		t.Helper()
		p, err := pvr.Open(ctx, append([]pvr.Option{
			pvr.WithASN(asn), pvr.WithTransport(tr), pvr.WithRegistry(reg),
			pvr.WithHoldTime(0), pvr.WithLogf(t.Logf),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	provider := open(64501)
	defer provider.Close()
	promisee := open(64502, pvr.WithSigner(promiseeKey), pvr.WithStore(promiseeStore))
	defer promisee.Close()
	third := open(64503)
	defer third.Close()

	// The provider offers A an input route, which A ingests through the
	// streaming plane and re-seals; from here on A's committed minimum
	// covers two inputs (synthetic upstream at length 1, provider at 3).
	ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
		Prefix:  pfx,
		Path:    pvr.NewPath(provider.ASN(), 65010, 65011),
		NextHop: netip.MustParseAddr("192.0.2.7"),
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

	// Provider-role query: granted, and the opened bit verifies against
	// the announcement the provider itself kept.
	pd, err := provider.QueryDisclosure(ctx, addr, pvr.Query{
		Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Prover: a.ASN(), Announcement: &ann,
	})
	if err != nil {
		t.Fatalf("provider query: %v", err)
	}
	if pd.Role != pvr.RoleProvider || pd.Provider == nil || pd.Prover != a.ASN() {
		t.Fatalf("provider disclosure malformed: %+v", pd)
	}

	// Promisee-role query: granted the full vector, provenance, export.
	md, err := promisee.RequestDisclosure(ctx, addr, pfx, 1)
	if err != nil {
		t.Fatalf("promisee query: %v", err)
	}
	if md.Role != pvr.RolePromisee || md.Promisee == nil || md.Promisee.Export.Prover != a.ASN() {
		t.Fatalf("promisee disclosure malformed: %+v", md)
	}
	if md.Window != a.Stats().Window {
		t.Fatalf("promisee disclosure window %d, server at %d", md.Window, a.Stats().Window)
	}

	// α denials: a third party asking for a provider or promisee view is
	// refused with a typed ErrAccessDenied; its observer query succeeds
	// but carries only the sealed commitment.
	if _, err := third.QueryDisclosure(ctx, addr, pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Announcement: &ann}); !errors.Is(err, pvr.ErrAccessDenied) {
		t.Fatalf("third-party provider query: %v, want ErrAccessDenied", err)
	}
	if _, err := third.RequestDisclosure(ctx, addr, pfx, 1); !errors.Is(err, pvr.ErrAccessDenied) {
		t.Fatalf("third-party promisee query: %v, want ErrAccessDenied", err)
	}
	var pe *pvr.Error
	if _, err := third.RequestDisclosure(ctx, addr, pfx, 1); !errors.As(err, &pe) || pe.Kind != pvr.KindAccessDenied {
		t.Fatalf("denial does not expose KindAccessDenied via errors.As: %v", err)
	}
	od, err := third.QueryDisclosure(ctx, addr, pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver})
	if err != nil {
		t.Fatalf("third-party observer query: %v", err)
	}
	if od.Sealed == nil || od.Provider != nil || od.Promisee != nil {
		t.Fatalf("observer disclosure carries role-gated material: %+v", od)
	}

	// Unknown material is a typed not-found, not a hang or a mystery.
	if _, err := third.QueryDisclosure(ctx, addr, pvr.Query{Prefix: pvr.MustParsePrefix("198.51.100.0/24"), Epoch: 1, Role: pvr.RoleObserver}); !errors.Is(err, pvr.ErrNotFound) {
		t.Fatalf("unknown-prefix query: %v, want ErrNotFound", err)
	}

	if st := a.Stats(); st.DisclosuresServed < 3 || st.DisclosuresDenied < 3 {
		t.Fatalf("server counters served=%d denied=%d, want >=3 each", st.DisclosuresServed, st.DisclosuresDenied)
	}

	// Equivocation: A churns once more, advancing the commitment window
	// to a seal topic the promisee has not fetched yet, then signs a
	// second, different payload on that very topic — the two-faced
	// statement it would show a different neighbor. The promisee hears
	// the forged one first (as gossip would deliver it), so the seal its
	// next query fetches conflicts, is convicted, and the evidence lands
	// in the ledger.
	ann2, err := provider.Announce(a.ASN(), 1, pvr.Route{
		Prefix:  pfx,
		Path:    pvr.NewPath(provider.ASN(), 65012),
		NextHop: netip.MustParseAddr("192.0.2.8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann2)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sc, err := a.Engine().Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	genuine := sc.Seal.Statement()
	forged, err := a.SignStatement(genuine.Topic, append(append([]byte(nil), genuine.Payload...), 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := promisee.Auditor().AddRecord(pvr.AuditRecord{Epoch: sc.Seal.Epoch, S: forged}); err != nil {
		t.Fatal(err)
	} else if conflict != nil {
		t.Fatal("forged statement alone already conflicted; the fetch should detect it")
	}
	if _, err := promisee.RequestDisclosure(ctx, addr, pfx, 1); !errors.Is(err, pvr.ErrConvicted) {
		t.Fatalf("query against an equivocating prover: %v, want ErrConvicted", err)
	}
	if !promisee.Auditor().Convicted(a.ASN()) {
		t.Fatal("promisee did not convict the equivocating prover")
	}
	// Once convicted, even well-formed queries are refused client-side.
	if _, err := promisee.RequestDisclosure(ctx, addr, pfx, 1); !errors.Is(err, pvr.ErrConvicted) {
		t.Fatalf("query after conviction: %v, want ErrConvicted", err)
	}

	// The conviction is persistent: reopening the store replays and
	// re-verifies the ledger's evidence, so the restarted promisee starts
	// with the prover convicted.
	if err := promisee.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := open(64502, pvr.WithSigner(promiseeKey), pvr.WithStore(promiseeStore))
	defer restarted.Close()
	if !restarted.Auditor().Convicted(a.ASN()) {
		t.Fatalf("conviction of %s did not survive the promisee's restart", a.ASN())
	}
	if _, err := restarted.RequestDisclosure(ctx, addr, pfx, 1); !errors.Is(err, pvr.ErrConvicted) {
		t.Fatalf("query after restart: %v, want ErrConvicted", err)
	}
}
