// Command pvrd is the PVR daemon: one pvr.Participant per process,
// configured from flags. It proves over the prefixes it originates
// (sealing per-prefix commitments into Merkle-batched shard seals),
// serves them to BGP peers with the commitment chain attached, verifies
// what peers advertise (pinning unknown keys trust-on-first-use), joins
// the audit gossip network, and persists equivocation evidence.
//
// Listener:
//
//	pvrd -listen 127.0.0.1:1790 -asn 64500 -originate 203.0.113.0/24,198.51.100.0/24 -shards 4
//
// Dialer:
//
//	pvrd -connect 127.0.0.1:1790 -asn 64501
//
// With -stream N the listener additionally runs N synthetic churn events
// through the streaming update plane: each -window only the dirty shards
// re-seal and the changed prefixes re-advertise to every live session.
// -gossip-listen / -gossip-peers / -gossip-every join the audit network;
// routes from a convicted origin are rejected. With -store DIR the daemon
// persists its durable state (sealed window sequence, trust-on-first-use
// key pins, disclosure-nonce marks, and the evidence ledger, so
// convictions survive restarts) under DIR and recovers it on restart,
// resuming the window sequence past everything it ever published. A
// ledger file from an older -ledger flag, moved to DIR/ledger, is
// migrated into the store on the next start.
//
// With -disclose-listen the daemon additionally serves the α-gated
// disclosure query plane: remote providers, promisees (declared with
// -promisees), and third-party auditors fetch on-demand views of any
// sealed (prefix, epoch), each granted exactly what α entitles them to.
// The query subcommand is the matching client:
//
//	pvrd query -connect 127.0.0.1:1791 -prefix 203.0.113.0/24 -role observer
//
// An observer query verifies the sealed commitment chain, pinning the
// prover's key trust-on-first-use. Provider and promisee views are
// released only to authenticated principals: the serving daemon must both
// list the ASN in -promisees and already hold its key (pinned from a live
// BGP session, or shared out-of-band via the library's WithRegistry), so
// a fresh-keyed CLI query for those roles is denied by α — exactly the
// boundary the plane exists to enforce. See
// pvr.Participant.QueryDisclosure for the programmatic client.
//
// With -debug-listen the daemon serves its observability plane over HTTP:
// /metrics (Prometheus text exposition of every plane's families), /trace
// (the most recent lifecycle events as JSON; ?n= caps the count), and the
// standard /debug/pprof profiles.
//
// pvrd shuts down cleanly on SIGINT/SIGTERM: sessions close with CEASE,
// the update plane seals its final window, the ledger is flushed, and
// -store takes a final checkpoint — a clean stop never needs WAL replay
// on the next boot.
// The heavy lifting all lives in pvr.Participant — this file only maps
// flags onto functional options.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pvr"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		queryMain(os.Args[2:])
		return
	}
	listen := flag.String("listen", "", "serve BGP sessions on this address")
	connect := flag.String("connect", "", "comma-separated BGP peers to dial")
	asn := flag.Uint("asn", 64500, "local AS number")
	originate := flag.String("originate", "", "comma-separated prefixes to originate")
	shards := flag.Int("shards", 0, "engine shard count (0 = one per CPU)")
	hold := flag.Uint("hold", 9, "hold time seconds (0 disables)")
	stream := flag.Int("stream", 0, "run the update plane over this many synthetic churn events (0 = off)")
	window := flag.Duration("window", 250*time.Millisecond, "update-plane commitment window")
	queue := flag.Int("queue", 1024, "update-plane ingest queue bound")
	gossipListen := flag.String("gossip-listen", "", "serve audit anti-entropy exchanges on this address")
	gossipPeers := flag.String("gossip-peers", "", "comma-separated audit peers to reconcile with periodically")
	gossipEvery := flag.Duration("gossip-every", 2*time.Second, "anti-entropy round interval")
	storeDir := flag.String("store", "", "durable state directory (WAL + snapshots; sealed windows, key pins, nonce marks, and audit convictions survive restarts)")
	discloseListen := flag.String("disclose-listen", "", "serve the α-gated disclosure query plane on this address")
	promisees := flag.String("promisees", "", "comma-separated ASNs entitled to promisee views under α")
	debugListen := flag.String("debug-listen", "", "serve /metrics, /trace, and /debug/pprof on this HTTP address")
	flag.Parse()

	if *listen == "" && *connect == "" && *gossipListen == "" && *discloseListen == "" {
		fmt.Fprintln(os.Stderr, "at least one of -listen, -connect, -gossip-listen, or -disclose-listen is required")
		os.Exit(2)
	}
	log.SetFlags(0)
	log.SetPrefix("pvrd: ")

	opts := []pvr.Option{
		pvr.WithASN(pvr.ASN(*asn)),
		pvr.WithTransport(pvr.TCP()),
		pvr.WithShards(*shards),
		pvr.WithHoldTime(uint16(*hold)),
		pvr.WithWindow(*window),
		pvr.WithQueueSize(*queue),
		pvr.WithChurn(*stream),
		pvr.WithGossipInterval(*gossipEvery),
		pvr.WithLogf(log.Printf),
	}
	if *listen != "" {
		opts = append(opts, pvr.WithListen(*listen))
	}
	if peers := splitList(*connect); len(peers) > 0 {
		opts = append(opts, pvr.WithPeers(peers...))
	}
	for _, s := range splitList(*originate) {
		p, err := pvr.ParsePrefix(s)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, pvr.WithOriginate(p))
	}
	if *gossipListen != "" {
		opts = append(opts, pvr.WithGossipListen(*gossipListen))
	}
	if peers := splitList(*gossipPeers); len(peers) > 0 {
		opts = append(opts, pvr.WithGossipPeers(peers...))
	}
	if *storeDir != "" {
		opts = append(opts, pvr.WithStore(*storeDir))
	}
	if *discloseListen != "" {
		opts = append(opts, pvr.WithDiscloseListen(*discloseListen))
	}
	for _, s := range splitList(*promisees) {
		// Strict parse: a mis-separated list must fail loudly, not
		// silently drop promisees from α.
		asn, err := strconv.ParseUint(s, 10, 32)
		if err != nil || asn == 0 {
			fatal(fmt.Errorf("bad -promisees entry %q", s))
		}
		opts = append(opts, pvr.WithPromisees(pvr.ASN(asn)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p, err := pvr.Open(ctx, opts...)
	if err != nil {
		fatal(err)
	}
	log.Printf("up as %s (%d prefixes, %d shards)", p.ASN(), p.Stats().Prefixes, p.Stats().Shards)
	if *debugListen != "" {
		lis, err := net.Listen("tcp", *debugListen)
		if err != nil {
			p.Close()
			fatal(err)
		}
		srv := &http.Server{Handler: p.DebugHandler()}
		go func() {
			if err := srv.Serve(lis); err != nil && err != http.ErrServerClosed {
				log.Printf("debug server: %v", err)
			}
		}()
		defer srv.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /trace, /debug/pprof)", lis.Addr())
	}
	if *connect != "" && *listen == "" {
		// Classic dial mode exits when its last BGP session ends, not
		// only on SIGINT; watch the session gauge and cancel.
		go func() {
			for ctx.Err() == nil {
				// The cumulative counter cannot miss a session that opens
				// and dies between polls.
				if st := p.Stats(); st.SessionsOpened > 0 && st.Sessions == 0 {
					log.Printf("all sessions closed, exiting")
					stop()
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
	}
	if err := p.Run(ctx); err != nil {
		fatal(err)
	}
	st := p.Stats()
	log.Printf("shut down: window %d, %d prefixes sealed, %d routes verified, %d rejected, %d audit records, %d convictions",
		st.Window, st.Prefixes, st.RoutesVerified, st.RoutesRejected, st.AuditRecords, st.Convictions)
	log.Printf("update plane: %d events, %d windows, %d shards rebuilt, %d reused, seal p50 %s p99 %s",
		st.Plane.EventsIn, st.Plane.Windows, st.Plane.RebuiltShards, st.Plane.ReusedShards,
		st.Plane.SealP50.Round(time.Microsecond), st.Plane.SealP99.Round(time.Microsecond))
}

// queryMain is the disclosure query subcommand: one α-gated fetch against
// a daemon's -disclose-listen endpoint, verified end to end.
func queryMain(args []string) {
	fs := flag.NewFlagSet("pvrd query", flag.ExitOnError)
	connect := fs.String("connect", "", "disclosure query-plane address to dial (required)")
	asn := fs.Uint("asn", 65099, "querying AS number")
	pfxArg := fs.String("prefix", "", "prefix to query (required)")
	epoch := fs.Uint64("epoch", 1, "commitment epoch to query")
	roleArg := fs.String("role", "observer", "view to request under α: observer|promisee")
	timeout := fs.Duration("timeout", 10*time.Second, "query deadline")
	_ = fs.Parse(args)
	if *connect == "" || *pfxArg == "" {
		fmt.Fprintln(os.Stderr, "pvrd query: -connect and -prefix are required")
		os.Exit(2)
	}
	pfx, err := pvr.ParsePrefix(*pfxArg)
	if err != nil {
		fatal(err)
	}
	var role pvr.Role
	switch *roleArg {
	case "observer":
		role = pvr.RoleObserver
	case "promisee":
		role = pvr.RolePromisee
	default:
		// A provider-role query needs the original signed announcement to
		// check the opened bit against; that lives in the providing
		// daemon's process, not on a CLI. Use the library for that.
		fmt.Fprintf(os.Stderr, "pvrd query: unsupported -role %q (observer|promisee)\n", *roleArg)
		os.Exit(2)
	}
	log.SetFlags(0)
	log.SetPrefix("pvrd: ")
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	p, err := pvr.Open(ctx, pvr.WithASN(pvr.ASN(*asn)), pvr.WithHoldTime(0), pvr.WithLogf(log.Printf))
	if err != nil {
		fatal(err)
	}
	defer p.Close()
	d, err := p.QueryDisclosure(ctx, *connect, pvr.Query{Prefix: pfx, Epoch: *epoch, Role: role})
	if err != nil {
		fatal(err)
	}
	log.Printf("%s view of %s from %s verified (epoch %d, window %d, shard %d/%d, %d committed prefixes in shard)",
		d.Role, d.Prefix, d.Prover, d.Epoch, d.Window,
		d.Sealed.Seal.Shard, d.Sealed.Seal.Shards, d.Sealed.Seal.Count)
	if d.KeyPinned {
		log.Printf("pinned %s's key trust-on-first-use", d.Prover)
	}
	if d.Promisee != nil {
		if d.Promisee.Export.Empty {
			log.Printf("prover exported nothing for %s", d.Prefix)
		} else {
			log.Printf("prover exported %s (committed minimum kept)", d.Promisee.Export.Route)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pvrd:", err)
	os.Exit(1)
}
