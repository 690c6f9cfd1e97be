package main

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"pvr"
)

// Fixed identities. Every set-up opens fresh registries, so the same
// ASNs and pre-generated keys are reused across set-ups.
const (
	asnProver   pvr.ASN = 64500
	asnPeer     pvr.ASN = 64501
	asnProvider pvr.ASN = 64503
	asnWriter   pvr.ASN = 64505
	asnAuditor  pvr.ASN = 64506
	asnRing0    pvr.ASN = 64510 // ring providers are asnRing0+k
	asnFleet0   pvr.ASN = 65000 // gossip participants are asnFleet0+i
)

var nextHop = netip.MustParseAddr("192.0.2.1")

// prefixes returns n distinct /24s starting at the block'th /16 group.
func prefixes(block, n int) []pvr.Prefix {
	out := make([]pvr.Prefix, n)
	for i := range out {
		j := block*256 + i
		out[i] = pvr.MustParsePrefix(fmt.Sprintf("%d.%d.%d.0/24", 10+j/65536, (j/256)%256, j%256))
	}
	return out
}

// announcer signs input announcements as one provider AS with a key
// generated once, so announcements signed before timing verify under
// every set-up's registry.
type announcer struct {
	p *pvr.Participant
}

func newAnnouncer(ctx context.Context, asn pvr.ASN) (*announcer, pvr.Signer, error) {
	s, err := pvr.GenerateEd25519()
	if err != nil {
		return nil, nil, err
	}
	p, err := pvr.Open(ctx, pvr.WithASN(asn), pvr.WithSigner(s),
		pvr.WithTransport(pvr.NewMemTransport()), pvr.WithHoldTime(0),
		pvr.WithLogf(func(string, ...any) {}))
	if err != nil {
		return nil, nil, err
	}
	return &announcer{p: p}, s, nil
}

// announce signs a route for pfx over path (which starts at the
// announcer) to the prover `to`, for epoch 1.
func (a *announcer) announce(to pvr.ASN, pfx pvr.Prefix, path ...pvr.ASN) (pvr.Announcement, error) {
	return a.p.Announce(to, 1, pvr.Route{Prefix: pfx, Path: pvr.NewPath(append([]pvr.ASN{a.p.ASN()}, path...)...), NextHop: nextHop})
}

func (a *announcer) close() { a.p.Close() }

// waitFor polls cond until it holds, failing after limit.
func waitFor(ctx context.Context, limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// counter reads one counter of p's registry.
func counter(p *pvr.Participant, name string) uint64 {
	v, _ := p.Metrics().Value(name)
	return uint64(v)
}

// submitAll feeds anns from one provider into p and seals a window.
func submitAll(ctx context.Context, p *pvr.Participant, from pvr.ASN, anns []pvr.Announcement) (pvr.UpdateWindow, error) {
	for _, ann := range anns {
		if err := p.Submit(ctx, pvr.AnnounceEvent(from, ann)); err != nil {
			return pvr.UpdateWindow{}, err
		}
	}
	return p.Flush(ctx)
}
