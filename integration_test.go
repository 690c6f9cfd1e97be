package pvr_test

import (
	"net/netip"
	"testing"
	"time"

	"pvr"
	"pvr/internal/aspath"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/netx"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// TestIntegrationSessionCarriesVerifiableAnnouncement wires the layers
// together over a real TCP socket: a provider runs a BGP session to the
// prover, sends an UPDATE whose attachment carries a PVR announcement
// signature, and the prover verifies it, accepts it into an epoch, and
// produces a promisee view that checks out.
func TestIntegrationSessionCarriesVerifiableAnnouncement(t *testing.T) {
	const (
		providerASN = aspath.ASN(64501)
		proverASN   = aspath.ASN(64500)
		promisee    = aspath.ASN(64510)
		epoch       = uint64(42)
	)
	pfx := prefix.MustParse("203.0.113.0/24")

	// PKI shared out of band.
	reg := sigs.NewRegistry()
	providerKey, err := sigs.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	proverKey, err := sigs.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(providerASN, providerKey.Public())
	reg.Register(proverASN, proverKey.Public())

	// The provider's signed input route, to travel inside the UPDATE.
	r := route.Route{
		Prefix:  pfx,
		Path:    aspath.New(providerASN, 64900),
		NextHop: netip.MustParseAddr("192.0.2.9"),
	}
	ann, err := core.NewAnnouncement(providerKey, providerASN, proverASN, epoch, r)
	if err != nil {
		t.Fatal(err)
	}

	// Prover side: a TCP listener running the BGP FSM; updates land in a
	// channel.
	got := make(chan bgp.Update, 1)
	addr, closer, err := netx.Listen("127.0.0.1:0", func(c *netx.Conn) {
		s := bgp.NewSession(c, bgp.Open{ASN: proverASN, RouterID: 1}, bgp.SessionHooks{
			OnUpdate: func(u bgp.Update) { got <- u },
		})
		_ = s.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Provider side: dial, establish, send the update with the PVR
	// attachment (epoch + signature bytes serialized by the caller).
	conn, err := netx.Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := bgp.NewSession(conn, bgp.Open{ASN: providerASN, RouterID: 2}, bgp.SessionHooks{})
	go client.Run()
	deadline := time.Now().Add(5 * time.Second)
	for client.State() != bgp.StateEstablished {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %v", client.State())
		}
		time.Sleep(time.Millisecond)
	}
	u := bgp.Update{
		Announced:   []route.Route{r},
		Attachments: map[string][]byte{"pvr/ann-sig": ann.Sig},
	}
	if err := client.SendUpdate(u); err != nil {
		t.Fatal(err)
	}

	// Prover receives the update over the wire and reconstructs the
	// announcement from route + attachment.
	var recv bgp.Update
	select {
	case recv = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
	if len(recv.Announced) != 1 || !recv.Announced[0].Equal(r) {
		t.Fatal("route mangled in transit")
	}
	rebuilt := pvr.Announcement{
		Epoch:    epoch,
		Provider: providerASN,
		To:       proverASN,
		Route:    recv.Announced[0],
		Sig:      recv.Attachments["pvr/ann-sig"],
	}

	// The prover runs the PVR protocol on the wire-delivered announcement.
	prover, err := core.NewProver(proverASN, proverKey, reg, 16)
	if err != nil {
		t.Fatal(err)
	}
	prover.BeginEpoch(epoch, pfx)
	if _, err := prover.AcceptAnnouncement(rebuilt); err != nil {
		t.Fatalf("wire-delivered announcement rejected: %v", err)
	}
	if _, err := prover.CommitMin(); err != nil {
		t.Fatal(err)
	}
	view, err := prover.DiscloseToPromisee(promisee)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyPromiseeView(reg, view); err != nil {
		t.Fatalf("end-to-end verification failed: %v", err)
	}
	if view.Winner == nil || view.Winner.Provider != providerASN {
		t.Error("provenance lost across the wire")
	}
	client.Close()
}
