package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pvr"
)

// event is one step of the equivocation schedule.
type event struct {
	control bool // inject nothing: no conviction may follow
	forger  int
	victim  int
	seal    int // which of the forger's live seals is forged
}

// gossip is audit anti-entropy and conviction: a fleet on one in-memory
// transport seals a window each, one participant equivocates to one
// victim, and seeded fanout-1 Reconcile rounds run until every honest
// participant has convicted it.
type gossip struct {
	cfg      config
	n        int
	pfxs     [][]pvr.Prefix
	shards   int
	provider pvr.Signer
	seals    [][][]pvr.Announcement // per event, per participant: one window
	events   []event
	nextEv   int
	rng      *rand.Rand // peer choices, drawn as rounds run

	parts   []*pvr.Participant
	addrs   []string
	forgers map[int]bool // participants injected so far
}

const (
	sealBatch = 4
	// controlEvery'th event injects nothing.
	controlEvery = 8
)

// detectBound is ⌈log₂N⌉+2, the most fleet rounds a detection may take.
func detectBound(n int) int { return int(math.Ceil(math.Log2(float64(n)))) + 2 }

func newGossip(cfg config) (*gossip, error) {
	w := &gossip{cfg: cfg, n: 32, shards: 4}
	perNode := 64
	if cfg.tiny {
		w.n, perNode = 16, 16
	}
	ctx := context.Background()
	prov, ps, err := newAnnouncer(ctx, asnProvider)
	if err != nil {
		return nil, err
	}
	defer prov.close()
	w.provider = ps
	for i := 0; i < w.n; i++ {
		w.pfxs = append(w.pfxs, prefixes(i, perNode))
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	// The schedule: every participant forges at most once, in a seeded
	// order, with control events interleaved.
	order := rng.Perm(w.n)
	for k := 0; k < len(order)-1; {
		if len(w.events)%controlEvery == controlEvery-1 {
			w.events = append(w.events, event{control: true})
			continue
		}
		f := order[k]
		v := rng.Intn(w.n - 1)
		if v >= f {
			v++
		}
		w.events = append(w.events, event{forger: f, victim: v, seal: rng.Intn(w.shards)})
		k++
	}
	for ev := range w.events {
		var per [][]pvr.Announcement
		for i := 0; i < w.n; i++ {
			var win []pvr.Announcement
			for _, j := range rng.Perm(perNode)[:sealBatch] {
				a, err := prov.announce(asnFleet0+pvr.ASN(i), w.pfxs[i][j], pvr.ASN(100000+ev), pvr.ASN(200000+j))
				if err != nil {
					return nil, err
				}
				win = append(win, a)
			}
			per = append(per, win)
		}
		w.seals = append(w.seals, per)
	}
	w.rng = rand.New(rand.NewSource(cfg.seed + 1))
	return w, nil
}

func (w *gossip) perGroup() int     { return 0 }
func (w *gossip) transport() string { return "memory" }
func (w *gossip) store() string     { return "none" }

func (w *gossip) setup(ctx context.Context, e *env) error {
	reg := pvr.NewRegistry()
	reg.Register(asnProvider, w.provider.Public())
	mem := e.transport(pvr.NewMemTransport())
	w.parts, w.addrs, w.forgers = nil, nil, map[int]bool{}
	for i := 0; i < w.n; i++ {
		p, err := e.open(ctx, "prover",
			pvr.WithASN(asnFleet0+pvr.ASN(i)), pvr.WithTransport(mem), pvr.WithRegistry(reg),
			pvr.WithOriginate(w.pfxs[i]...), pvr.WithShards(w.shards), pvr.WithWindow(0),
			pvr.WithGossipListen(fmt.Sprintf("g%d", i)), pvr.WithHoldTime(0))
		if err != nil {
			return err
		}
		w.parts = append(w.parts, p)
		w.addrs = append(w.addrs, p.GossipAddr())
	}
	// Warm-up: rounds until one in which every exchange was in sync. Its
	// peer choices come from a generator of their own, so the measured
	// rounds draw the same sequence after any number of set-ups.
	warm := rand.New(rand.NewSource(w.cfg.seed + 2))
	for r := 0; ; r++ {
		if r == 4*detectBound(w.n) {
			return fmt.Errorf("gossip warm-up did not converge in %d rounds", r)
		}
		inSync := true
		for i := range w.parts {
			st, err := w.parts[i].Reconcile(ctx, w.addrs[w.peer(warm, i)])
			if err != nil {
				return fmt.Errorf("warm-up reconcile: %w", err)
			}
			inSync = inSync && st.InSync
		}
		if inSync {
			return nil
		}
	}
}

// peer draws participant i's fanout-1 partner.
func (w *gossip) peer(rng *rand.Rand, i int) int {
	j := rng.Intn(w.n - 1)
	if j >= i {
		j++
	}
	return j
}

func (w *gossip) run(ctx context.Context, ph *phase) error {
	for !ph.done() && w.nextEv < len(w.events) {
		ev := w.events[w.nextEv]
		if err := w.event(ctx, ph, ev, w.seals[w.nextEv]); err != nil {
			return err
		}
		w.nextEv++
		if !ph.ok() {
			break
		}
	}
	return nil
}

// event runs one schedule step: every participant seals a window; the
// forger (unless this is a control) equivocates to its victim, and fleet
// rounds run until every honest participant convicted it; then rounds run
// until the fleet is back in sync, so every event starts from the same
// state. Each honest participant's conviction is one operation, timed
// from the injection.
func (w *gossip) event(ctx context.Context, ph *phase, ev event, seals [][]pvr.Announcement) error {
	tr := ph.tr
	op, id := ph.op(), tr.newID()
	ph.begin()
	defer ph.end()
	for i, p := range w.parts {
		s := time.Now()
		if _, err := submitAll(ctx, p, asnProvider, seals[i]); err != nil {
			return fmt.Errorf("seal window: %w", err)
		}
		tr.record(0, id, op, "gossip.seal", s, time.Now())
	}

	var forger pvr.ASN
	start := time.Now()
	if !ev.control {
		fp := w.parts[ev.forger]
		forger = fp.ASN()
		live := fp.Engine().Seals()
		seal := live[ev.seal%len(live)]
		genuine := seal.Statement()
		forged, err := fp.SignStatement(genuine.Topic, append(append([]byte(nil), genuine.Payload...), 0xFF))
		if err != nil {
			return err
		}
		if _, _, err := w.parts[ev.victim].Auditor().AddRecord(pvr.AuditRecord{Epoch: seal.Epoch, S: forged}); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
		w.forgers[ev.forger] = true
	}

	// convictedAt[i]: when honest participant i was first seen holding
	// the conviction (zero: not yet).
	convictedAt := make([]time.Time, w.n)
	missing := w.n - 1
	mark := func(i int) {
		if !ev.control && i != ev.forger && convictedAt[i].IsZero() && w.parts[i].Auditor().Convicted(forger) {
			convictedAt[i] = time.Now()
			missing--
		}
	}
	mark(ev.victim)
	bound := detectBound(w.n)
	detectRounds := 0
	for r := 1; ; r++ {
		if r > 3*bound {
			ph.verdict("event %d: fleet not in sync after %d rounds", op, r-1)
			break
		}
		inSync := true
		for i := 0; i < w.n; i++ {
			j := w.peer(w.rng, i)
			rid := tr.newID()
			s := time.Now()
			st, err := w.parts[i].Reconcile(withSpan(ctx, tr, rid, op), w.addrs[j])
			if err != nil {
				return fmt.Errorf("reconcile: %w", err)
			}
			tr.record(rid, id, op, "pvr.Reconcile", s, time.Now())
			inSync = inSync && st.InSync
			if missing > 0 {
				mark(i)
				mark(j)
				if missing == 0 {
					detectRounds = r
					tr.record(0, id, op, "gossip.detect", start, time.Now())
				}
			}
		}
		if inSync && (ev.control || missing == 0) {
			break
		}
	}
	tr.record(id, 0, op, "gossip.event", start, time.Now())
	if ev.control {
		ph.count(ph.ok())
	} else {
		for i, at := range convictedAt {
			if i != ev.forger {
				ph.observe(at.Sub(start), !at.IsZero())
			}
		}
		if missing > 0 || detectRounds > bound {
			ph.verdict("event %d: detection took %d rounds (%d honest participants missing), bound %d", op, detectRounds, missing, bound)
		}
		ph.rounds(detectRounds)
	}
	w.checkConvictions(ph, op)
	return nil
}

// checkConvictions fails the run on any false conviction: no participant
// may hold a conviction of an AS that never equivocated.
func (w *gossip) checkConvictions(ph *phase, op int64) {
	for i, p := range w.parts {
		for _, c := range p.Auditor().Convictions() {
			k := int(c.ASN - asnFleet0)
			if k < 0 || k >= w.n || !w.forgers[k] {
				ph.verdict("event %d: participant %d falsely convicted %s", op, i, c.ASN)
			}
		}
	}
}
