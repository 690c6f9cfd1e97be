// Command perfbench is the repository's benchmark. It opens real
// pvr.Participants and drives them only through package pvr's public
// API, on one of three workloads:
//
//	churn    the update path: Submit → Flush → BGP re-advertisement → peer verification
//	gossip   audit anti-entropy: equivocation injected, fleet-wide conviction
//	privacy  anonymous ring-signed provider queries beside ZK audit openings
//
// Usage:
//
//	perfbench --workload churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end figures, timed by the benchmark itself per operation;
// with --trace 1 they are the per-layer figures of the traced quarters, from
// spans around the benchmark's calls into pvr and from exact deltas of
// the participants' metric registries. README.md maps each per-layer
// metric to the end-to-end metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// runLimit bounds one invocation of the program.
	runLimit = 150 * time.Second
	// setups is how many times a run sets its workload up; setup_s is
	// their median.
	setups = 3
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes
	outDir   string // spans, results and the run's temp directory
	tmp      string // the run's temp directory, for file-backed stores
	commit   string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is printed before the result and stored beside the spans.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Transport  string         `json:"transport"`
	Store      string         `json:"store"`
	Samples    map[string]int `json:"samples"`
	Verdicts   []string       `json:"verdicts,omitempty"`
	// Overhead is, per end-to-end metric, the traced quarters' value minus
	// the untraced quarters' (traced runs only).
	Overhead map[string]float64 `json:"trace_overhead,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
}

// workload is one traffic mix. Inputs are generated from the seed when
// the workload is built, before any timing.
type workload interface {
	// setup opens the participants on e and waits until they are ready.
	setup(ctx context.Context, e *env) error
	// run performs operations until ph's deadline, finishing the one in
	// flight.
	run(ctx context.Context, ph *phase) error
	// perGroup is how many consecutive operations form one group of the
	// end-to-end medians (0: the workload groups by begin/end).
	perGroup() int
	transport() string
	store() string
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "churn":
		return newChurn(cfg)
	case "gossip":
		return newGossip(cfg)
	case "privacy":
		return newPrivacy(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want churn, gossip or privacy)", cfg.workload)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "churn, gossip or privacy")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time per run")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced phase")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spans, results and temp stores")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the program was built from")
	flag.Parse()
	cfg.trace = trace == 1

	if err := report(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report runs cfg and prints the provenance line, then the result line.
func report(cfg config) error {
	// A run must end within 180 seconds; a hang fails it instead.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, prov, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(pj))
	fmt.Println(string(rj))
	return nil
}

// run builds the workload, sets it up cfg.setups times, measures, and
// assembles the result.
func run(ctx context.Context, cfg config) (*result, *provenance, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	w, err := newWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var took []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		e = &env{tr: tr}
		start := time.Now()
		if err := w.setup(ctx, e); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	defer e.close()

	prov := &provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: cfg.commit, Transport: w.transport(), Store: w.store(),
		Samples: map[string]int{"setup_s": len(took)},
	}

	measure := func(tr *tracer, seconds float64) (*phase, []map[string]float64, []map[string]float64, error) {
		before := e.snapshot()
		ph := newPhase(tr, seconds, w.perGroup())
		err := w.run(ctx, ph)
		ph.finish()
		return ph, before, e.snapshot(), err
	}

	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		ph, before, after, err := measure(nil, cfg.seconds)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = endToEnd(ph, e.deltas(before, after))
		res.Metrics["setup_s"] = metric{median(took), "s"}
		finish(res, prov, ph)
		return res, prov, writeResult(cfg, res, prov)
	}

	// Traced run: quarters in the order untraced, traced, traced,
	// untraced on the same participants, so state that grows during the
	// run (gossip's statement store) weighs on both sides alike. The
	// per-layer figures come from the traced quarters; the difference of
	// the two sides' end-to-end figures is the tracing overhead.
	var plain, traced []*phase
	var dPlain, dTraced deltas
	for _, t := range []*tracer{nil, tr, tr, nil} {
		ph, before, after, err := measure(t, cfg.seconds/4)
		if err != nil {
			return nil, nil, err
		}
		if t == nil {
			plain, dPlain = append(plain, ph), dPlain.plus(e.deltas(before, after))
		} else {
			traced, dTraced = append(traced, ph), dTraced.plus(e.deltas(before, after))
		}
	}
	off, on := merge(plain...), merge(traced...)
	base, withTrace := endToEnd(off, dPlain), endToEnd(on, dTraced)
	prov.Overhead = map[string]float64{}
	for k, v := range withTrace {
		if d := v.Value - base[k].Value; finite(d) {
			prov.Overhead[k] = d
		}
	}
	overhead := ratio(withTrace["op_p50_ms"].Value-base["op_p50_ms"].Value, base["op_p50_ms"].Value)
	res.Metrics = perLayer(dTraced, tr.byName(), on, overhead)
	prov.SpanFile = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(prov.SpanFile); err != nil {
		return nil, nil, err
	}
	finish(res, prov, off, on)
	return res, prov, writeResult(cfg, res, prov)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finish folds the phases' counts and verdicts into the result. A metric
// that could not be computed (too few operations) reads -1 and fails
// the run.
func finish(res *result, prov *provenance, phases ...*phase) {
	ok := true
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		ok = ok && ph.ok()
		prov.Verdicts = append(prov.Verdicts, ph.bad...)
	}
	last := phases[len(phases)-1]
	prov.Samples["op"] = len(last.lat)
	prov.Samples["op_groups"] = len(last.groups)
	for k, v := range res.Metrics {
		if !finite(v.Value) {
			res.Metrics[k] = metric{-1, v.Unit}
			ok = false
			prov.Verdicts = append(prov.Verdicts, k+" is not finite: too few operations completed")
		}
	}
	res.Correct = ok && res.Attempted > 0
}

func writeResult(cfg config, res *result, prov *provenance) error {
	b, err := json.MarshalIndent(struct {
		Provenance *provenance `json:"provenance"`
		Result     *result     `json:"result"`
	}{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("result-%s-%d-trace%d.json", cfg.workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(cfg.outDir, name), b, 0o644)
}

// endToEnd derives the user-visible figures of one phase. Every workload
// reports the same set over its operation: a churn window until the peer
// verified it, one honest participant convicting the forger, one
// anonymous disclosure. Latencies and rates are medians over the phase's
// groups (see phase).
func endToEnd(ph *phase, d deltas) map[string]metric {
	return map[string]metric{
		"op_p50_ms":      {ph.quantile(0.50) * 1e3, "ms"},
		"ops_per_s":      {ph.rate(), "1/s"},
		"wire_kb_per_op": {ratio(d.global("pvr_netx_frame_bytes_out_total")/1024, float64(len(ph.lat))), "KiB"},
	}
}

// perLayer derives the per-layer figures of the traced phase: "pvr.*"
// from spans around the benchmark's calls into package pvr, the rest from
// exact registry deltas (histogram _sum/_count and counters). A layer a
// workload does not load reads zero.
func perLayer(d deltas, sp map[string]stat, ph *phase, overhead float64) map[string]metric {
	ops := float64(ph.attempted)
	windows := d.sum("prover", "pvr_upd_windows_total")
	exchanges := d.sum("", "pvr_audit_rounds_total") / 2 // both ends count a round
	updFlush := d.meanHist("prover", "pvr_upd_window_flush_seconds", "", 1e3)
	m := map[string]metric{
		"pvr.open_ms":              {sp["pvr.Open"].meanMs(), "ms"},
		"pvr.submit_us":            {sp["pvr.Submit"].meanUs(), "us"},
		"pvr.flush_ms":             {sp["pvr.Flush"].meanMs(), "ms"},
		"pvr.propagate_ms":         {sp["bench.propagate"].meanMs(), "ms"},
		"pvr.onwindow_ms":          {math.Max(0, sp["pvr.Flush"].meanMs()-updFlush), "ms"},
		"pvr.reconcile_ms":         {sp["pvr.Reconcile"].meanMs(), "ms"},
		"pvr.audit_ms":             {sp["pvr.RequestAuditProof"].meanMs(), "ms"},
		"pvr.anon_us":              {sp["pvr.RequestAnonymousDisclosure"].meanUs(), "us"},
		"pvr.dial_us":              {sp["pvr.dial"].meanUs(), "us"},
		"pvr.dials_per_op":         {ratio(float64(sp["pvr.dial"].n), ops), "count"},
		"tail.op_p90_ms":           {ph.quantile(0.90) * 1e3, "ms"},
		"gossip.detect_ms":         {sp["gossip.detect"].meanMs(), "ms"},
		"gossip.detect_rounds_max": {float64(ph.roundsMax), "count"},

		"updplane.apply_ms":                  {d.meanHist("prover", "pvr_upd_window_apply_seconds", "", 1e3), "ms"},
		"updplane.seal_ms":                   {d.meanHist("prover", "pvr_upd_window_seal_seconds", "", 1e3), "ms"},
		"updplane.flush_ms":                  {updFlush, "ms"},
		"updplane.dirty_prefixes_per_window": {ratio(d.sum("prover", "pvr_upd_dirty_prefixes_total"), windows), "count"},
		"updplane.shards_rebuilt_per_window": {ratio(d.sum("prover", "pvr_upd_shards_rebuilt_total"), windows), "count"},
		"updplane.queue_high_water":          {d.max("prover", "pvr_upd_queue_high_water"), "count"},

		"engine.shard_seal_ms":          {d.meanHist("prover", "pvr_engine_shard_seal_seconds", "", 1e3), "ms"},
		"engine.shard_seals_per_window": {ratio(d.sum("prover", "pvr_engine_shard_seal_seconds_count"), windows), "count"},

		"store.commit_us":          {d.meanHist("", "pvr_store_commit_seconds", "", 1e6), "us"},
		"store.commits_per_op":     {ratio(d.sum("", "pvr_store_commits_total"), ops), "count"},
		"store.records_per_commit": {d.meanHist("", "pvr_store_commit_batch_records", "", 1), "count"},
		"store.wal_bytes_per_op":   {ratio(d.sum("", "pvr_store_wal_bytes_total"), ops), "bytes"},

		"auditnet.round_ms":                 {d.meanHist("", "pvr_audit_round_seconds", "", 1e3), "ms"},
		"auditnet.bytes_per_round":          {ratio(d.sum("", "pvr_audit_bytes_sent_total"), exchanges), "bytes"},
		"auditnet.statements_new_per_round": {ratio(d.sum("", "pvr_audit_statements_new_total"), exchanges), "count"},
		"auditnet.insync_frac":              {ratio(d.sum("", "pvr_audit_rounds_insync_total"), 2*exchanges), "ratio"},

		"bgp.updates_out_per_window": {ratio(d.sum("prover", "pvr_bgp_updates_out_total"), windows), "count"},
		"bgp.updates_in_per_window":  {ratio(d.sum("peer", "pvr_bgp_updates_in_total"), windows), "count"},

		"netx.frames_per_op":  {ratio(d.global("pvr_netx_frames_out_total"), ops), "count"},
		"netx.bytes_per_op":   {ratio(d.global("pvr_netx_frame_bytes_out_total"), ops), "bytes"},
		"netx.pool_miss_frac": {ratio(d.global("pvr_netx_pool_misses_total"), d.global("pvr_netx_pool_gets_total")), "ratio"},

		"sigs.memo_hit_frac": {ratio(d.sum("peer", "pvr_sigmemo_hits_total"),
			d.sum("peer", "pvr_sigmemo_hits_total")+d.sum("peer", "pvr_sigmemo_misses_total")), "ratio"},

		"discplane.serve_us":          {d.meanHist("prover", "pvr_disc_latency_seconds", "", 1e6), "us"},
		"discplane.serve_us.provider": {d.meanHist("prover", "pvr_disc_role_latency_seconds", `{role="provider"}`, 1e6), "us"},
		"discplane.cache_hit_frac": {ratio(d.sum("prover", "pvr_disc_cache_hits_total"),
			d.sum("prover", "pvr_disc_cache_hits_total")+d.sum("prover", "pvr_disc_cache_misses_total")), "ratio"},

		"privplane.proof_gen_ms":    {d.meanHist("", "pvr_priv_proof_gen_seconds", "", 1e3), "ms"},
		"privplane.proof_verify_ms": {d.meanHist("", "pvr_priv_proof_verify_seconds", "", 1e3), "ms"},
		"privplane.proof_cache_hit_frac": {ratio(d.sum("", "pvr_priv_proof_cache_hits_total"),
			d.sum("", "pvr_priv_proof_cache_hits_total")+d.sum("", "pvr_priv_proofs_built_total")), "ratio"},
		"privplane.ring_sign_ms":   {d.meanHist("", "pvr_priv_ring_sign_seconds", "", 1e3), "ms"},
		"privplane.ring_verify_us": {d.meanHist("", "pvr_priv_ring_verify_seconds", "", 1e6), "us"},

		"trace.overhead_frac": {overhead, "ratio"},
	}
	return m
}
