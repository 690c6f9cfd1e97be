// Example participant: the whole PVR deployment story through one
// lifecycle-managed object per AS.
//
// AS 64500 originates a small table and serves it — sealed per-prefix
// commitments batched into Merkle shard seals — over the in-memory
// transport. AS 64501 dials it, pins its key trust-on-first-use, and
// verifies every learned route against the sealed commitment chain.
// Live churn re-seals only the dirty shards each window. Then 64500
// equivocates — signs a second, different statement on one of its own
// seal topics — and the audit layer convicts it: 64501 starts rejecting
// its routes, and the conviction transfers to AS 64502 through gossip
// alone.
//
//	go run ./examples/participant
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"pvr"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mem := pvr.NewMemTransport()

	// The out-of-band PKI the paper assumes: the churn provider, the
	// origin, and the pure auditor share it; the BGP neighbor instead pins
	// keys trust-on-first-use from the session.
	reg := pvr.NewRegistry()

	// The churn provider signs the input routes the origin ingests. It
	// needs an identity, not sessions: a participant with its own key
	// (a daemon would load one from disk) registered in the shared PKI.
	providerKey, err := pvr.GenerateEd25519()
	check(err)
	provider, err := pvr.Open(ctx,
		pvr.WithASN(64700),
		pvr.WithSigner(providerKey),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithHoldTime(0),
	)
	check(err)
	defer provider.Close()

	pfxs := []pvr.Prefix{
		pvr.MustParsePrefix("203.0.113.0/24"),
		pvr.MustParsePrefix("198.51.100.0/24"),
	}

	// The origin: proves over its table, serves BGP and audit gossip.
	// WithWindow(0) makes sealing explicit (Flush) so the demo is
	// deterministic; a daemon would use a timer window instead.
	origin, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithOriginate(pfxs...),
		pvr.WithShards(4),
		pvr.WithWindow(0),
		pvr.WithListen("origin"),
		pvr.WithGossipListen("origin-audit"),
		pvr.WithHoldTime(0),
	)
	check(err)
	defer origin.Close()

	// The neighbor: dials the origin and verifies what it learns.
	neighbor, err := pvr.Open(ctx,
		pvr.WithASN(64501),
		pvr.WithTransport(mem),
		pvr.WithPeers("origin"),
		pvr.WithGossipListen("neighbor-audit"),
		pvr.WithHoldTime(0),
	)
	check(err)
	defer neighbor.Close()

	// A pure auditor: no BGP adjacency with the origin at all.
	auditor, err := pvr.Open(ctx,
		pvr.WithASN(64502),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithGossipListen("auditor-audit"),
		pvr.WithHoldTime(0),
	)
	check(err)
	defer auditor.Close()

	waitUntil(func() bool { return neighbor.Stats().RoutesVerified >= uint64(len(pfxs)) })
	fmt.Printf("neighbor verified the origin's table: %d sealed routes\n",
		neighbor.Stats().RoutesVerified)

	// Live churn: a fresh provider route dirties one prefix; the window
	// re-seals only that shard and re-advertises with the fresh seal.
	ann, err := provider.Announce(origin.ASN(), 1, pvr.Route{
		Prefix:  pfxs[0],
		Path:    pvr.NewPath(provider.ASN(), 64800),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	check(err)
	check(origin.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)))
	w, err := origin.Flush(ctx)
	check(err)
	fmt.Printf("churn window %d: rebuilt %d/%d shards for %d dirty prefix\n",
		w.Window, len(w.Rebuilt), w.TotalShards, w.DirtyPrefixes)

	// The neighbor reconciles with the origin's audit endpoint and now
	// holds its genuine seal statements.
	_, err = neighbor.Reconcile(ctx, "origin-audit")
	check(err)

	// Equivocation: the origin signs a different payload on a live seal
	// topic — what it would show a different neighbor. Detection is
	// immediate and the evidence is transferable.
	genuine := origin.Engine().Seals()[0].Statement()
	forged, err := origin.SignStatement(genuine.Topic, append([]byte("two-faced:"), genuine.Payload...))
	check(err)
	_, conflict, err := neighbor.Auditor().AddRecord(pvr.AuditRecord{Epoch: 1, S: forged})
	check(err)
	if conflict == nil || !neighbor.Auditor().Convicted(origin.ASN()) {
		log.Fatal("equivocation went undetected")
	}
	fmt.Printf("neighbor convicted %s: equivocation on %q\n", origin.ASN(), conflict.Topic)

	// The conviction spreads through gossip alone.
	_, err = auditor.Reconcile(ctx, "neighbor-audit")
	check(err)
	if !auditor.Auditor().Convicted(origin.ASN()) {
		log.Fatal("conviction did not transfer through gossip")
	}
	fmt.Println("auditor convicted the origin from gossiped evidence alone")

	// And the convicted origin's routes are now rejected.
	ann, err = provider.Announce(origin.ASN(), 1, pvr.Route{
		Prefix:  pfxs[1],
		Path:    pvr.NewPath(provider.ASN(), 64801),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	check(err)
	check(origin.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)))
	_, err = origin.Flush(ctx)
	check(err)
	waitUntil(func() bool { return neighbor.Stats().RoutesRejected > 0 })
	st := neighbor.Stats()
	fmt.Printf("neighbor now rejects the origin: %d verified before conviction, %d rejected after\n",
		st.RoutesVerified, st.RoutesRejected)
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
