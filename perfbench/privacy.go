package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pvr"
)

// anonDraw is one anonymous query: which ring member asks about which
// prefix.
type anonDraw struct{ member, pfx int }

// privacy is the anonymous and zero-knowledge openings: a ZK-sealing
// prover whose every prefix has routes of distinct lengths from four
// ring-keyed providers. Each round seals one path change (turning the
// proof cache over), then serves one third-party ZK audit and a burst of
// ring-signed anonymous provider queries.
type privacy struct {
	cfg       config
	pfxs      []pvr.Prefix
	ring      []pvr.ASN
	ringKeys  []*pvr.RingKey
	signers   []pvr.Signer
	anns      [][]pvr.Announcement // per ring member, per prefix
	writer    pvr.Signer
	changes   []pvr.Announcement // one path change per round
	audits    []int              // per round: the audited prefix
	anon      [][]anonDraw       // per round
	nextRound int

	a, auditor *pvr.Participant
	members    []*pvr.Participant
	addr       string
	// opened is the bit position each ring member's view opened: its
	// route length's, so fixed per member and distinct across members.
	opened map[int]int
}

const (
	ringSize      = 4
	anonPerRound  = 64
	maxRoundRate  = 2 // rounds per measured second, sizing the inputs
	privacyPrefix = 16
)

func newPrivacy(cfg config) (*privacy, error) {
	w := &privacy{cfg: cfg, pfxs: prefixes(0, privacyPrefix), opened: map[int]int{}}
	perRound := anonPerRound
	if cfg.tiny {
		w.pfxs, perRound = prefixes(0, 4), 8
	}
	ctx := context.Background()
	for k := 0; k < ringSize; k++ {
		asn := asnRing0 + pvr.ASN(k)
		rk, err := pvr.GenerateRingKey(asn)
		if err != nil {
			return nil, err
		}
		ann, s, err := newAnnouncer(ctx, asn)
		if err != nil {
			return nil, err
		}
		// Member k's routes are k+2 hops long, so every member opens a
		// different bit.
		var mine []pvr.Announcement
		for i, pfx := range w.pfxs {
			hops := make([]pvr.ASN, k+1)
			for h := range hops {
				hops[h] = pvr.ASN(300000 + 100*i + h)
			}
			a, err := ann.announce(asnProver, pfx, hops...)
			if err != nil {
				ann.close()
				return nil, err
			}
			mine = append(mine, a)
		}
		ann.close()
		w.ring = append(w.ring, asn)
		w.ringKeys = append(w.ringKeys, rk)
		w.signers = append(w.signers, s)
		w.anns = append(w.anns, mine)
	}
	wr, ws, err := newAnnouncer(ctx, asnWriter)
	if err != nil {
		return nil, err
	}
	defer wr.close()
	w.writer = ws
	rng := rand.New(rand.NewSource(cfg.seed))
	for r := 0; r < int(cfg.seconds*maxRoundRate)+4; r++ {
		a, err := wr.announce(asnProver, w.pfxs[rng.Intn(len(w.pfxs))], pvr.ASN(100000+r))
		if err != nil {
			return nil, err
		}
		w.changes = append(w.changes, a)
		w.audits = append(w.audits, rng.Intn(len(w.pfxs)))
		draws := make([]anonDraw, perRound)
		for i := range draws {
			draws[i] = anonDraw{member: rng.Intn(ringSize), pfx: rng.Intn(len(w.pfxs))}
		}
		w.anon = append(w.anon, draws)
	}
	return w, nil
}

func (w *privacy) perGroup() int     { return 0 }
func (w *privacy) transport() string { return "tcp-loopback" }
func (w *privacy) store() string     { return "none" }

func (w *privacy) setup(ctx context.Context, e *env) error {
	reg := pvr.NewRegistry()
	reg.Register(asnWriter, w.writer.Public())
	rd := pvr.NewRingDirectory()
	tcp := e.transport(pvr.TCP())
	var err error
	w.a, err = e.open(ctx, "prover",
		pvr.WithASN(asnProver), pvr.WithTransport(tcp), pvr.WithRegistry(reg),
		pvr.WithRingDirectory(rd), pvr.WithZKDisclosure(), pvr.WithOriginate(w.pfxs...),
		pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithDiscloseListen("127.0.0.1:0"))
	if err != nil {
		return err
	}
	w.addr = w.a.DiscloseAddr()
	client := func(asn pvr.ASN, opts ...pvr.Option) (*pvr.Participant, error) {
		return e.open(ctx, "peer", append([]pvr.Option{
			pvr.WithASN(asn), pvr.WithTransport(tcp), pvr.WithRegistry(reg),
			pvr.WithRingDirectory(rd), pvr.WithHoldTime(0),
		}, opts...)...)
	}
	w.members = nil
	for k, asn := range w.ring {
		p, err := client(asn, pvr.WithSigner(w.signers[k]), pvr.WithRingKey(w.ringKeys[k]))
		if err != nil {
			return err
		}
		w.members = append(w.members, p)
	}
	if w.auditor, err = client(asnAuditor); err != nil {
		return err
	}
	// Readiness: every member's routes are ingested and sealed.
	for k, asn := range w.ring {
		for _, ann := range w.anns[k] {
			if err := w.a.Submit(ctx, pvr.AnnounceEvent(asn, ann)); err != nil {
				return err
			}
		}
	}
	if _, err := w.a.Flush(ctx); err != nil {
		return fmt.Errorf("seal provider routes: %w", err)
	}
	return nil
}

func (w *privacy) run(ctx context.Context, ph *phase) error {
	tr := ph.tr
	for !ph.done() && w.nextRound < len(w.changes) {
		r := w.nextRound
		w.nextRound++
		id := tr.newID()
		ph.begin()
		start := time.Now()
		s := start
		if err := w.a.Submit(ctx, pvr.AnnounceEvent(asnWriter, w.changes[r])); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		tr.record(0, id, 0, "pvr.Submit", s, time.Now())
		s = time.Now()
		if _, err := w.a.Flush(ctx); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		tr.record(0, id, 0, "pvr.Flush", s, time.Now())

		pfx := w.pfxs[w.audits[r]]
		aid := tr.newID()
		s = time.Now()
		d, err := w.auditor.RequestAuditProof(withSpan(ctx, tr, aid, 0), w.addr, pfx, 1)
		tr.record(aid, id, 0, "pvr.RequestAuditProof", s, time.Now())
		switch {
		case err != nil:
			ph.verdict("ZK audit of %s: %v", pfx, err)
		case d.Role != pvr.RoleAuditor || d.Vector == nil || d.Vector.Proof == nil:
			ph.verdict("ZK audit of %s: no verified vector proof", pfx)
		case d.Provider != nil || d.Promisee != nil:
			ph.verdict("ZK audit of %s: opened material leaked to a third party", pfx)
		}

		for _, q := range w.anon[r] {
			w.anonymous(ctx, ph, id, q)
		}
		tr.record(id, 0, 0, "privacy.round", start, time.Now())
		ph.end()
		if !ph.ok() {
			break
		}
	}
	return nil
}

// anonymous issues and checks one ring-signed provider query.
func (w *privacy) anonymous(ctx context.Context, ph *phase, round int64, q anonDraw) {
	tr := ph.tr
	op, id := ph.op(), tr.newID()
	ann := w.anns[q.member][q.pfx]
	pfx := w.pfxs[q.pfx]
	start := time.Now()
	d, err := w.members[q.member].RequestAnonymousDisclosure(withSpan(ctx, tr, id, op), w.addr, pfx, 1, w.ring, &ann)
	end := time.Now()
	tr.record(id, round, op, "pvr.RequestAnonymousDisclosure", start, end)
	ok := err == nil
	switch {
	case err != nil:
		ph.verdict("anonymous query by ring member %d for %s: %v", q.member, pfx, err)
	case d.Role != pvr.RoleProvider || d.Provider == nil || d.Promisee != nil:
		ph.verdict("anonymous query by ring member %d for %s: provider view malformed", q.member, pfx)
		ok = false
	default:
		if !w.openedAt(q.member, d.Provider.Position) {
			ph.verdict("anonymous query by ring member %d for %s opened bit %d, not its route length's", q.member, pfx, d.Provider.Position)
			ok = false
		}
	}
	ph.observe(end.Sub(start), ok)
}

// openedAt records the bit member's view opened and reports whether it
// agrees with every earlier view: the same bit for the member, a
// different one from every other member.
func (w *privacy) openedAt(member, pos int) bool {
	if prev, seen := w.opened[member]; seen {
		return prev == pos
	}
	for _, p := range w.opened {
		if p == pos {
			return false
		}
	}
	w.opened[member] = pos
	return true
}
