package pvr

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"pvr/internal/sigs"
	"pvr/internal/store"
)

// Durable-state WAL record types. The window record is written ahead of
// publication: a seal window number is fsynced before any seal from
// that window reaches the auditor, the gossip mesh, or a BGP peer, so a
// crash can lose an unpublished window but never publish an unlogged
// one — and a restart therefore never re-seals under a window the
// network has already seen (which peers would convict as equivocation).
const (
	// dsWindow: u64 epoch | u64 window. Synchronous.
	dsWindow uint8 = 0x01
	// dsPin: u32 asn | u16 keylen | marshaled public key. Synchronous —
	// a trust-on-first-use pin that silently evaporated on restart would
	// let the next claimant of the ASN present a fresh key.
	dsPin uint8 = 0x02
	// dsNonce: u64 nonce stamp. Asynchronous — it rides the next group
	// commit, trading a bounded replay window (at most one flush
	// interval) for not paying an fsync per disclosure query.
	dsNonce uint8 = 0x03
)

// dsSnapVersion versions the snapshot payload layout.
const dsSnapVersion uint8 = 1

// durableState is the participant's materialized durable state and its
// write path into the store: the sealed (epoch, window) position,
// trust-on-first-use pins, and the disclosure-nonce high-water mark.
// Convictions are deliberately absent — they live in the evidence
// ledger, whose replay re-verifies every signature, so a tampered store
// cannot mint one.
type durableState struct {
	st   *store.Store
	logf func(format string, args ...any)

	mu       sync.Mutex
	epoch    uint64
	window   uint64
	pins     map[ASN][]byte
	nonceHWM uint64
}

func newDurableState(st *store.Store, logf func(string, ...any)) *durableState {
	return &durableState{st: st, logf: logf, pins: make(map[ASN][]byte)}
}

// recover folds a store recovery — snapshot first, then the WAL records
// behind it — into the materialized state.
func (d *durableState) recover(rec *store.Recovery) error {
	if rec.Snapshot != nil {
		if err := d.loadSnapshot(rec.Snapshot); err != nil {
			return err
		}
	}
	for _, r := range rec.Records {
		if err := d.apply(r); err != nil {
			return err
		}
	}
	return nil
}

func (d *durableState) apply(r store.Record) error {
	switch r.Type {
	case dsWindow:
		if len(r.Data) != 16 {
			return fmt.Errorf("pvr: durable state: window record of %d bytes", len(r.Data))
		}
		d.epoch = binary.BigEndian.Uint64(r.Data)
		d.window = binary.BigEndian.Uint64(r.Data[8:])
	case dsPin:
		if len(r.Data) < 6 {
			return fmt.Errorf("pvr: durable state: pin record of %d bytes", len(r.Data))
		}
		asn := ASN(binary.BigEndian.Uint32(r.Data))
		n := int(binary.BigEndian.Uint16(r.Data[4:]))
		if len(r.Data) != 6+n {
			return fmt.Errorf("pvr: durable state: pin record length mismatch")
		}
		d.pins[asn] = append([]byte(nil), r.Data[6:]...)
	case dsNonce:
		if len(r.Data) != 8 {
			return fmt.Errorf("pvr: durable state: nonce record of %d bytes", len(r.Data))
		}
		if s := binary.BigEndian.Uint64(r.Data); s > d.nonceHWM {
			d.nonceHWM = s
		}
	default:
		return fmt.Errorf("pvr: durable state: unknown record type %#x", r.Type)
	}
	return nil
}

// Snapshot payload:
//
//	u8 version | u64 epoch | u64 window | u64 nonceHWM |
//	u32 npins | npins × (u32 asn | u16 keylen | key)
//
// pins sorted by ASN so identical state serializes identically.
func (d *durableState) snapshotPayload() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := []byte{dsSnapVersion}
	buf = binary.BigEndian.AppendUint64(buf, d.epoch)
	buf = binary.BigEndian.AppendUint64(buf, d.window)
	buf = binary.BigEndian.AppendUint64(buf, d.nonceHWM)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.pins)))
	asns := make([]ASN, 0, len(d.pins))
	for a := range d.pins {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, a := range asns {
		key := d.pins[a]
		buf = binary.BigEndian.AppendUint32(buf, uint32(a))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
		buf = append(buf, key...)
	}
	return buf
}

func (d *durableState) loadSnapshot(b []byte) error {
	bad := func(what string) error {
		return fmt.Errorf("pvr: durable state: snapshot %s", what)
	}
	if len(b) < 1+8+8+8+4 {
		return bad("truncated")
	}
	if b[0] != dsSnapVersion {
		return fmt.Errorf("pvr: durable state: snapshot version %d not supported", b[0])
	}
	d.epoch = binary.BigEndian.Uint64(b[1:])
	d.window = binary.BigEndian.Uint64(b[9:])
	d.nonceHWM = binary.BigEndian.Uint64(b[17:])
	npins := int(binary.BigEndian.Uint32(b[25:]))
	off := 29
	for i := 0; i < npins; i++ {
		if len(b)-off < 6 {
			return bad("pin truncated")
		}
		asn := ASN(binary.BigEndian.Uint32(b[off:]))
		n := int(binary.BigEndian.Uint16(b[off+4:]))
		off += 6
		if len(b)-off < n {
			return bad("pin key truncated")
		}
		d.pins[asn] = append([]byte(nil), b[off:off+n]...)
		off += n
	}
	if off != len(b) {
		return bad("has trailing bytes")
	}
	return nil
}

// logWindow durably records the sealed position before it is published.
func (d *durableState) logWindow(epoch, window uint64) error {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], epoch)
	binary.BigEndian.PutUint64(buf[8:], window)
	if err := d.st.Append(dsWindow, buf[:]); err != nil {
		return err
	}
	d.mu.Lock()
	d.epoch, d.window = epoch, window
	d.mu.Unlock()
	return nil
}

// logPin durably records a trust-on-first-use key pin.
func (d *durableState) logPin(asn ASN, key []byte) error {
	buf := binary.BigEndian.AppendUint32(nil, uint32(asn))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	if err := d.st.Append(dsPin, buf); err != nil {
		return err
	}
	d.mu.Lock()
	d.pins[asn] = append([]byte(nil), key...)
	d.mu.Unlock()
	return nil
}

// logNonce records a served disclosure-query nonce stamp; it rides the
// next group commit.
func (d *durableState) logNonce(stamp uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], stamp)
	d.st.AppendAsync(dsNonce, buf[:])
	d.mu.Lock()
	if stamp > d.nonceHWM {
		d.nonceHWM = stamp
	}
	d.mu.Unlock()
}

func (d *durableState) nonceFloor() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nonceHWM
}

// checkpoint snapshots the materialized state, compacting the WAL
// behind it. Run on clean shutdown so the next boot replays nothing.
func (d *durableState) checkpoint() error {
	return d.st.Snapshot(d.snapshotPayload())
}

// maybeSnapshot checkpoints when enough records have accumulated;
// called once per seal window so snapshot cost lands between windows,
// never on a query path.
func (d *durableState) maybeSnapshot() {
	if !d.st.SnapshotDue() {
		return
	}
	if err := d.checkpoint(); err != nil {
		d.logf("pvr: store snapshot: %v", err)
	}
}

// storeOptions is the store configuration both logs share: the
// store's own group-commit and snapshot defaults, reporting into the
// participant's pvr_store_* metric set.
func (p *Participant) storeOptions() store.Options {
	return store.Options{Metrics: p.storeMet}
}

// buildStore opens the durable store (when configured), recovers the
// participant's materialized state, and re-registers recovered
// trust-on-first-use pins. It is the first build step so its closer
// runs last: every other plane has flushed its final writes before the
// closing checkpoint makes the next boot replay-free.
func (p *Participant) buildStore() error {
	if p.cfg.storeDir == "" && p.cfg.storeBackend == nil {
		if p.cfg.storeFault != nil {
			return errConfigf("open", "WithStoreFault requires WithStore or WithStoreBackend")
		}
		return nil
	}
	if p.cfg.storeDir != "" && p.cfg.storeBackend != nil {
		return errConfigf("open", "WithStore and WithStoreBackend are exclusive")
	}
	b := p.cfg.storeBackend
	if b == nil {
		fb, err := store.NewFileBackend(p.cfg.storeDir)
		if err != nil {
			return wrapErr("open", err)
		}
		b = fb
	}
	if p.cfg.storeFault != nil {
		b = p.cfg.storeFault.Bind(b)
	}
	p.storeBk = b
	st, rec, err := store.Open(store.Sub(b, "state"), p.storeOptions())
	if err != nil {
		return wrapErr("open", err)
	}
	d := newDurableState(st, p.cfg.logf)
	if err := d.recover(rec); err != nil {
		_ = st.Close()
		return wrapErr("open", err)
	}
	p.dstate = d
	p.storeStats = StoreStats{
		Enabled:          true,
		RecoveredEpoch:   d.epoch,
		RecoveredWindow:  d.window,
		RecoveredPins:    len(d.pins),
		RecoveredRecords: len(rec.Records),
		NonceFloor:       d.nonceHWM,
		RecoveryTime:     rec.Elapsed,
	}
	// Recovered pins re-enter the registry only on the private
	// trust-on-first-use path; a shared registry is the out-of-band PKI
	// and nothing persisted locally may write into it (the same rule
	// verifySealedRoute enforces at pin time).
	if p.cfg.registry == nil {
		for asn, kb := range d.pins {
			k, err := sigs.UnmarshalPublicKey(kb)
			if err != nil {
				_ = st.Close()
				return wrapErr("open", fmt.Errorf("recovered pin for %s: %w", asn, err))
			}
			if _, added := p.reg.RegisterIfAbsent(asn, k); added {
				p.registered = append(p.registered, asn)
			}
		}
	}
	if d.epoch != 0 || len(rec.Records) > 0 || rec.Snapshot != nil {
		p.cfg.logf("pvr: %s recovered durable state in %s: epoch %d window %d, %d pins, nonce floor %d (%d WAL records past the snapshot)",
			p.asn, rec.Elapsed, d.epoch, d.window, len(d.pins), d.nonceHWM, len(rec.Records))
	}
	p.addCloser(func() {
		if err := d.checkpoint(); err != nil {
			p.cfg.logf("pvr: store checkpoint: %v", err)
		}
		if err := st.Close(); err != nil {
			p.cfg.logf("pvr: store close: %v", err)
		}
	})
	return nil
}
