package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"pvr"
)

// churn is the update path, closed loop: prover A seals windows of
// pre-signed path changes; peer B, over one BGP session on TCP loopback,
// must verify every re-advertised route before the next window starts.
type churn struct {
	cfg      config
	pfxs     []pvr.Prefix
	shards   int
	batch    int
	provider pvr.Signer
	windows  [][]pvr.Announcement // pre-signed, one batch per window
	next     int                  // next unused window

	a, b *pvr.Participant
	// verified is B's pvr_routes_verified_total once the last window
	// completed.
	verified uint64
}

// maxWindowRate bounds how many windows a second of measuring can use,
// which sizes the pre-signed input.
const maxWindowRate = 100

func newChurn(cfg config) (*churn, error) {
	w := &churn{cfg: cfg, pfxs: prefixes(0, 4096), shards: 64, batch: 32}
	if cfg.tiny {
		w.pfxs, w.shards, w.batch = prefixes(0, 256), 8, 8
	}
	ctx := context.Background()
	ann, signer, err := newAnnouncer(ctx, asnProvider)
	if err != nil {
		return nil, err
	}
	defer ann.close()
	w.provider = signer
	rng := rand.New(rand.NewSource(cfg.seed))
	n := int(cfg.seconds*maxWindowRate) + 8
	w.windows = make([][]pvr.Announcement, n)
	for i := range w.windows {
		// Every window carries a path no earlier window used, so each
		// announcement is a change for its prefix.
		for _, j := range rng.Perm(len(w.pfxs))[:w.batch] {
			a, err := ann.announce(asnProver, w.pfxs[j], pvr.ASN(100000+i), pvr.ASN(200000+j))
			if err != nil {
				return nil, err
			}
			w.windows[i] = append(w.windows[i], a)
		}
	}
	return w, nil
}

func (w *churn) perGroup() int     { return 32 }
func (w *churn) transport() string { return "tcp-loopback" }
func (w *churn) store() string     { return "file" }

func (w *churn) setup(ctx context.Context, e *env) error {
	reg := pvr.NewRegistry()
	reg.Register(asnProvider, w.provider.Public())
	dir, err := os.MkdirTemp(w.cfg.tmp, "churn-store-")
	if err != nil {
		return err
	}
	tcp := e.transport(pvr.TCP())
	w.a, err = e.open(ctx, "prover",
		pvr.WithASN(asnProver), pvr.WithTransport(tcp), pvr.WithRegistry(reg),
		pvr.WithOriginate(w.pfxs...), pvr.WithShards(w.shards), pvr.WithWindow(0),
		pvr.WithListen("127.0.0.1:0"), pvr.WithHoldTime(0), pvr.WithStore(dir))
	if err != nil {
		return err
	}
	w.b, err = e.open(ctx, "peer",
		pvr.WithASN(asnPeer), pvr.WithTransport(tcp), pvr.WithPeers(w.a.Addr()), pvr.WithHoldTime(0))
	if err != nil {
		return err
	}
	want := uint64(len(w.pfxs))
	if err := waitFor(ctx, time.Minute, "B to verify A's table", func() bool {
		return counter(w.b, "pvr_routes_verified_total") >= want
	}); err != nil {
		return err
	}
	w.verified = counter(w.b, "pvr_routes_verified_total")
	return nil
}

func (w *churn) run(ctx context.Context, ph *phase) error {
	tr := ph.tr
	for !ph.done() && w.next < len(w.windows) {
		batch := w.windows[w.next]
		w.next++
		op, id := ph.op(), tr.newID()
		start := time.Now()
		ok := true
		for _, ann := range batch {
			s := time.Now()
			if err := w.a.Submit(ctx, pvr.AnnounceEvent(asnProvider, ann)); err != nil {
				return fmt.Errorf("submit: %w", err)
			}
			tr.record(0, id, op, "pvr.Submit", s, time.Now())
		}
		fs := time.Now()
		win, err := w.a.Flush(ctx)
		flushed := time.Now()
		if err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		tr.record(0, id, op, "pvr.Flush", fs, flushed)
		if win.DirtyPrefixes != len(batch) {
			ph.verdict("window %d: %d dirty prefixes, want %d", win.Window, win.DirtyPrefixes, len(batch))
		}
		want := w.verified + uint64(len(batch))
		if err := waitFor(ctx, 10*time.Second, "B to verify the window", func() bool {
			return counter(w.b, "pvr_routes_verified_total") >= want
		}); err != nil {
			ph.verdict("window %d: %v", win.Window, err)
			ok = false
		}
		end := time.Now()
		tr.record(0, id, op, "bench.propagate", flushed, end)
		tr.record(id, 0, op, "churn.window", start, end)
		w.verified = counter(w.b, "pvr_routes_verified_total")
		if w.verified != want {
			ph.verdict("window %d: B verified %d routes, want %d", win.Window, w.verified, want)
		}
		if r := counter(w.b, "pvr_routes_rejected_total"); r != 0 {
			ph.verdict("B rejected %d honest routes", r)
			ok = false
		}
		ph.observe(end.Sub(start), ok)
		if !ok {
			break
		}
	}
	return nil
}
