package auditnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/store"
)

// Ledger is the persistent append-only evidence log: every confirmed
// equivocation, encoded with the same explicit binary layout the wire
// uses, appended to a group-commit write-ahead log (one fsync covers
// every record that queued behind it). Nothing in the ledger is trusted
// on read — OpenLedger returns the raw records and the Auditor
// re-verifies every signature and re-runs the judge during replay, so a
// tampered ledger fails loudly instead of minting convictions.
type Ledger struct {
	log *store.Log

	mu  sync.Mutex
	met *auditMetrics // detached handles until an Auditor instruments us
}

// Ledger record frame types. recMagic only appears in legacy v1
// single-file ledgers (the WAL's segment header versions the new
// format); recConflict is the evidence record in both.
const (
	recMagic    uint8 = 0x01
	recConflict uint8 = 0x02
)

// ledgerMagic is the first record of a legacy v1 ledger file.
const ledgerMagic = "pvr/auditnet-ledger/v1"

// LedgerRecord is one replayed evidence entry.
type LedgerRecord struct {
	// Accuser is the AS that recorded the evidence (not itself verified —
	// equivocation evidence convicts on the accused's own signatures).
	Accuser aspath.ASN
	// Conflict is the equivocation evidence.
	Conflict *gossip.Conflict
}

// ErrLedgerCorrupt is wrapped by replay failures.
var ErrLedgerCorrupt = errors.New("auditnet: ledger corrupt")

// OpenLedger opens (creating if needed) the ledger rooted at path — a
// directory of WAL segments — and replays its records. A torn final
// record (the crash-during-append case) is dropped; any other malformed
// framing fails with ErrLedgerCorrupt. Record *contents* are not
// verified here; the Auditor does that, with keys, during its replay.
//
// A regular file at path is a legacy v1 single-file ledger: its records
// are migrated into the WAL and the file is kept beside it as
// path+".v1".
func OpenLedger(path string) (*Ledger, []LedgerRecord, error) {
	migrated, err := readLegacy(path)
	if err != nil {
		return nil, nil, err
	}
	b, err := store.NewFileBackend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("auditnet: open ledger: %w", err)
	}
	return openLedger(b, store.Options{}, migrated)
}

// OpenLedgerBackend opens the ledger on an arbitrary store backend (a
// Participant's shared durable store, a netsim Mem, a fault injector)
// with explicit WAL options. When legacy names a regular file, it is
// migrated as OpenLedger migrates one: its records are re-appended into
// the backend's WAL and the file is kept aside as legacy+".v1". Call it
// before anything creates the backend's directory at legacy.
func OpenLedgerBackend(b store.Backend, opt store.Options, legacy string) (*Ledger, []LedgerRecord, error) {
	var migrated [][]byte
	if legacy != "" {
		var err error
		if migrated, err = readLegacy(legacy); err != nil {
			return nil, nil, err
		}
	}
	return openLedger(b, opt, migrated)
}

func openLedger(b store.Backend, opt store.Options, migrated [][]byte) (*Ledger, []LedgerRecord, error) {
	log, rec, err := store.OpenLog(b, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrLedgerCorrupt, err)
	}
	var recs []LedgerRecord
	for _, r := range rec.Records {
		lr, err := decodeLedgerRecord(r)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		recs = append(recs, lr)
	}
	l := &Ledger{log: log}
	// Re-home legacy records into the WAL before anything else lands.
	for _, payload := range migrated {
		lr, err := decodeLedgerRecord(store.Record{Type: recConflict, Data: payload})
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		if err := log.Append(recConflict, payload); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("auditnet: migrate ledger: %w", err)
		}
		recs = append(recs, lr)
	}
	return l, recs, nil
}

func decodeLedgerRecord(r store.Record) (LedgerRecord, error) {
	if r.Type != recConflict {
		return LedgerRecord{}, fmt.Errorf("%w: unknown record type %#x", ErrLedgerCorrupt, r.Type)
	}
	pr := &netx.PayloadReader{B: r.Data}
	accuser, err := pr.U32()
	if err != nil {
		return LedgerRecord{}, fmt.Errorf("%w: conflict record: %v", ErrLedgerCorrupt, err)
	}
	c, err := readConflict(pr)
	if err == nil {
		err = pr.Done()
	}
	if err != nil {
		return LedgerRecord{}, fmt.Errorf("%w: conflict record: %v", ErrLedgerCorrupt, err)
	}
	return LedgerRecord{Accuser: aspath.ASN(accuser), Conflict: c}, nil
}

// readLegacy detects a v1 single-file ledger at path, parses its
// records, and moves the file aside so a WAL directory can take its
// place. It returns the raw conflict payloads to re-append.
func readLegacy(path string) ([][]byte, error) {
	info, err := os.Stat(path)
	if err != nil || info.IsDir() {
		return nil, nil // absent or already a WAL directory
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auditnet: read legacy ledger: %w", err)
	}
	payloads, err := parseLegacy(raw)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(path, path+".v1"); err != nil {
		return nil, fmt.Errorf("auditnet: move legacy ledger aside: %w", err)
	}
	return payloads, nil
}

// parseLegacy decodes a v1 ledger image: netx frames, a magic record
// first, conflict records after, torn tail tolerated. A torn magic
// (crash during the very first write) reads as an empty ledger.
func parseLegacy(raw []byte) ([][]byte, error) {
	rd := bytes.NewReader(raw)
	first, err := netx.ReadFrame(rd)
	if errors.Is(err, netx.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, nil
	}
	if err != nil || first.Type != recMagic || string(first.Payload) != ledgerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrLedgerCorrupt)
	}
	var payloads [][]byte
	for {
		fr, err := netx.ReadFrame(rd)
		if errors.Is(err, netx.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
			return payloads, nil // clean EOF or torn tail
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLedgerCorrupt, err)
		}
		if fr.Type != recConflict {
			return nil, fmt.Errorf("%w: unknown record type %#x", ErrLedgerCorrupt, fr.Type)
		}
		payloads = append(payloads, fr.Payload)
	}
}

// AppendConflict durably appends one evidence record: it returns once
// the record — and every record that shared its group commit — has been
// fsynced.
func (l *Ledger) AppendConflict(accuser aspath.ASN, c *gossip.Conflict) error {
	payload := netx.AppendU32(nil, uint32(accuser))
	payload = append(payload, EncodeConflict(c)...)
	t0 := time.Now()
	if err := l.log.Append(recConflict, payload); err != nil {
		if errors.Is(err, store.ErrClosed) {
			return fmt.Errorf("auditnet: ledger closed")
		}
		return fmt.Errorf("auditnet: ledger append: %w", err)
	}
	l.mu.Lock()
	met := l.met
	l.mu.Unlock()
	if met != nil {
		met.ledgerApps.Inc()
		met.fsyncSec.ObserveSince(t0)
	}
	return nil
}

// instrument points the ledger's append accounting at an auditor's
// metric set. Called by auditnet.New.
func (l *Ledger) instrument(m *auditMetrics) {
	l.mu.Lock()
	l.met = m
	l.mu.Unlock()
}

// Log exposes the underlying write-ahead log (for stats and tests).
func (l *Ledger) Log() *store.Log { return l.log }

// Close flushes pending appends and closes the log.
func (l *Ledger) Close() error { return l.log.Close() }
