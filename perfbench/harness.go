package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvr"
)

// span is one timed call into package pvr (or one benchmark-side wait),
// kept in memory during the traced phase and written out at the end.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span id, so a parent can be named by its children
// before its own end time is known.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// stat is the count and total duration of every span with one name.
type stat struct {
	n   int
	sum time.Duration
}

func (s stat) meanMs() float64 { return ratio(s.sum.Seconds()*1e3, float64(s.n)) }
func (s stat) meanUs() float64 { return ratio(s.sum.Seconds()*1e6, float64(s.n)) }

// byName folds the recorded spans into per-name totals.
func (t *tracer) byName() map[string]stat {
	out := map[string]stat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		st := out[s.Name]
		st.n++
		st.sum += time.Duration(s.End - s.Start)
		out[s.Name] = st
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanCtx carries the enclosing span into the transport, so a dial made
// inside a pvr call is recorded as that call's child.
type spanCtx struct{ id, op int64 }

type spanKey struct{}

func withSpan(ctx context.Context, t *tracer, id, op int64) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanCtx{id, op})
}

// dialTimer wraps the Transport handed to WithTransport in traced runs:
// each Dial made under a traced call becomes a "pvr.dial" span.
type dialTimer struct {
	pvr.Transport
	tr *tracer
}

func (d *dialTimer) Dial(ctx context.Context, addr string) (pvr.Conn, error) {
	sc, traced := ctx.Value(spanKey{}).(spanCtx)
	start := time.Now()
	c, err := d.Transport.Dial(ctx, addr)
	if traced {
		d.tr.record(0, sc.id, sc.op, "pvr.dial", start, time.Now())
	}
	return c, err
}

// member is one opened participant and the side it plays, which selects
// the registries a per-layer ratio is taken over.
type member struct {
	p    *pvr.Participant
	side string // "prover" or "peer"
}

// env opens participants for one set-up and, in traced runs, records
// their Open spans and wraps their transports with dialTimer.
type env struct {
	tr      *tracer
	members []member
}

func (e *env) transport(t pvr.Transport) pvr.Transport {
	if e.tr == nil {
		return t
	}
	return &dialTimer{Transport: t, tr: e.tr}
}

func (e *env) open(ctx context.Context, side string, opts ...pvr.Option) (*pvr.Participant, error) {
	start := time.Now()
	p, err := pvr.Open(ctx, append(opts, pvr.WithLogf(func(string, ...any) {}))...)
	if err != nil {
		return nil, err
	}
	e.tr.record(0, 0, 0, "pvr.Open", start, time.Now())
	e.members = append(e.members, member{p: p, side: side})
	return p, nil
}

func (e *env) close() {
	var wg sync.WaitGroup
	for _, m := range e.members {
		wg.Add(1)
		go func(p *pvr.Participant) {
			defer wg.Done()
			p.Close()
		}(m.p)
	}
	wg.Wait()
	e.members = nil
}

// snapshot reads every member's metric registry.
func (e *env) snapshot() []map[string]float64 {
	out := make([]map[string]float64, len(e.members))
	for i, m := range e.members {
		out[i] = m.p.Metrics().Snapshot()
	}
	return out
}

// deltas is the change in every registry over one or more intervals of
// one env, read as exact counter and histogram _sum/_count differences.
type deltas struct {
	diff  []map[string]float64 // per member: after − before, summed over the intervals
	end   []map[string]float64 // per member: the values at the end of the last interval
	sides []string
}

func (e *env) deltas(before, after []map[string]float64) deltas {
	d := deltas{end: after}
	for i, m := range e.members {
		diff := make(map[string]float64, len(after[i]))
		for k, v := range after[i] {
			diff[k] = v - before[i][k]
		}
		d.diff = append(d.diff, diff)
		d.sides = append(d.sides, m.side)
	}
	return d
}

// plus is the change over d's intervals followed by o's.
func (d deltas) plus(o deltas) deltas {
	if d.diff == nil {
		return o
	}
	out := deltas{end: o.end, sides: o.sides}
	for i := range o.diff {
		sum := make(map[string]float64, len(o.diff[i]))
		for k, v := range d.diff[i] {
			sum[k] = v
		}
		for k, v := range o.diff[i] {
			sum[k] += v
		}
		out.diff = append(out.diff, sum)
	}
	return out
}

// sum totals the change in one metric over the members on side ("" for
// every member).
func (d deltas) sum(side, name string) float64 {
	var s float64
	for i := range d.diff {
		if side == "" || d.sides[i] == side {
			s += d.diff[i][name]
		}
	}
	return s
}

// global is the change in a process-wide family (netx), read from one
// registry so it is not counted once per member.
func (d deltas) global(name string) float64 {
	if len(d.diff) == 0 {
		return 0
	}
	return d.diff[0][name]
}

// max is the largest end value of a gauge over the members on side.
func (d deltas) max(side, name string) float64 {
	var m float64
	for i := range d.end {
		if side == "" || d.sides[i] == side {
			m = math.Max(m, d.end[i][name])
		}
	}
	return m
}

// meanHist is a histogram's mean over the phase, in the given unit
// scale (1e3 for ms, 1e6 for µs), from its exact _sum and _count.
func (d deltas) meanHist(side, family, labels string, scale float64) float64 {
	return ratio(d.sum(side, family+"_sum"+labels)*scale, d.sum(side, family+"_count"+labels))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs by linear interpolation between the
// two nearest order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	if frac == 0 || xs[lo] == xs[hi] {
		return xs[lo] // also keeps a failed (+Inf) operation from turning into NaN
	}
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// phase is one measuring interval: the workload's operations, their
// durations as the benchmark itself timed them, and verdicts.
//
// Operations are summarised per group: a gossip event or a privacy
// round (begin/end), else a run of perGroup consecutive completions. The
// end-to-end figures are medians over groups, so a burst of noise from
// the host moves them less than it moves a whole-run figure.
type phase struct {
	tr        *tracer
	start     time.Time
	deadline  time.Time
	nextOp    int64
	mu        sync.Mutex
	lat       []float64 // seconds per operation; a failed one is +Inf
	groups    []*group
	open      *group // the begin/end group in progress
	perGroup  int    // completions per group outside begin/end
	attempted int
	failed    int
	busy      time.Duration // wall time the completed operations span
	roundsMax int           // gossip: most fleet rounds one detection took
	bad       []string      // correctness verdicts that failed
}

// group is one stretch of a phase and the operations that completed in it.
type group struct {
	start, end time.Time
	lat        []float64
	ok         int
}

func newPhase(tr *tracer, seconds float64, perGroup int) *phase {
	now := time.Now()
	return &phase{tr: tr, start: now, deadline: now.Add(time.Duration(seconds * float64(time.Second))), perGroup: perGroup}
}

func (ph *phase) op() int64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.nextOp++
	return ph.nextOp
}

func (ph *phase) done() bool { return !time.Now().Before(ph.deadline) }

// begin opens a group (a gossip event, a privacy round); end closes it.
func (ph *phase) begin() {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.open = &group{start: time.Now()}
}

func (ph *phase) end() {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if g := ph.open; g != nil && len(g.lat) > 0 {
		g.end = time.Now()
		ph.groups = append(ph.groups, g)
	}
	ph.open = nil
}

// observe records one attempted operation.
func (ph *phase) observe(d time.Duration, ok bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	v := d.Seconds()
	if !ok {
		ph.failed++
		v = math.Inf(1)
	}
	ph.lat = append(ph.lat, v)
	g := ph.open
	if g == nil {
		n := len(ph.groups)
		if n == 0 || len(ph.groups[n-1].lat) == ph.perGroup {
			start := ph.start
			if n > 0 {
				start = ph.groups[n-1].end
			}
			ph.groups = append(ph.groups, &group{start: start})
		}
		g = ph.groups[len(ph.groups)-1]
		g.end = time.Now()
	}
	g.lat = append(g.lat, v)
	if ok {
		g.ok++
	}
}

// finish ends the phase. A trailing group of consecutive completions
// cut short by the end of the run is dropped unless it is the only one.
func (ph *phase) finish() {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.busy = time.Since(ph.start)
	if n := len(ph.groups); n > 1 && ph.perGroup > 0 && len(ph.groups[n-1].lat) < ph.perGroup {
		ph.groups = ph.groups[:n-1]
	}
}

// merge joins phases measured one after another on the same participants.
func merge(phs ...*phase) *phase {
	out := &phase{}
	for _, ph := range phs {
		out.lat = append(out.lat, ph.lat...)
		out.groups = append(out.groups, ph.groups...)
		out.attempted += ph.attempted
		out.failed += ph.failed
		out.busy += ph.busy
		out.roundsMax = max(out.roundsMax, ph.roundsMax)
		out.bad = append(out.bad, ph.bad...)
	}
	return out
}

// quantile is the median over groups of each group's q-quantile.
func (ph *phase) quantile(q float64) float64 {
	var per []float64
	for _, g := range ph.groups {
		if len(g.lat) > 0 {
			per = append(per, quantile(append([]float64(nil), g.lat...), q))
		}
	}
	return median(per)
}

// rate is the median over groups of successful operations per second.
func (ph *phase) rate() float64 {
	var per []float64
	for _, g := range ph.groups {
		per = append(per, ratio(float64(g.ok), g.end.Sub(g.start).Seconds()))
	}
	return median(per)
}

// count records an untimed operation (a gossip control event).
func (ph *phase) count(ok bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if !ok {
		ph.failed++
	}
}

// rounds records how many fleet rounds one detection took.
func (ph *phase) rounds(n int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.roundsMax = max(ph.roundsMax, n)
}

// verdict records a correctness failure; the run reports correct=false.
func (ph *phase) verdict(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if len(ph.bad) < 20 {
		ph.bad = append(ph.bad, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) ok() bool {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return len(ph.bad) == 0
}
