package pvr

import (
	"time"

	"pvr/internal/store"
)

// StoreBackend is the durable store's filesystem surface: a flat
// namespace of named, appendable, fsyncable files. WithStore roots one
// on a directory; NewMemStore gives an in-memory backend with
// power-loss semantics for simulations; NewStoreFault wraps either with
// a fault injector. One backend carries both the participant's state
// store (under "state/") and its evidence ledger (under "ledger/").
type StoreBackend = store.Backend

// MemStore is an in-memory StoreBackend with power-loss semantics:
// bytes become durable only at Sync, and Crash discards everything
// after the last fsync — what a kill -9 plus page-cache loss does to a
// real disk. Reopening a participant on the same MemStore models a
// process restart.
type MemStore = store.Mem

// NewMemStore returns an empty in-memory store backend.
var NewMemStore = store.NewMem

// StoreFault is a fault-injecting StoreBackend wrapper: torn writes,
// short writes, fsync failures, and kills at arbitrary byte offsets.
// Arm a fault, Bind it over a backend, and pass the result to
// WithStoreBackend; after a simulated crash, Bind again to model the
// restart.
type StoreFault = store.Fault

// NewStoreFault returns a fault injector with no faults armed.
var NewStoreFault = store.NewFault

// StoreStats reports what the durable store recovered at Open; zero
// (Enabled false) when the participant runs without one.
type StoreStats struct {
	// Enabled is true when WithStore or WithStoreBackend was given.
	Enabled bool
	// RecoveredEpoch and RecoveredWindow are the sealed position the
	// store carried across the restart (zero on a first boot); the
	// engine resumed from them, so the first post-restart seal
	// published at RecoveredWindow+1.
	RecoveredEpoch, RecoveredWindow uint64
	// RecoveredPins counts trust-on-first-use key pins re-registered
	// from the store.
	RecoveredPins int
	// RecoveredRecords counts WAL records replayed after the snapshot —
	// zero after a clean shutdown, which checkpoints on Close.
	RecoveredRecords int
	// NonceFloor is the recovered disclosure-nonce high-water mark; the
	// disclosure plane denies query nonces at or below it.
	NonceFloor uint64
	// RecoveryTime is the open-time snapshot load + WAL replay wall time.
	RecoveryTime time.Duration
}

// WithStore persists the participant's state — sealed window sequence,
// trust-on-first-use key pins, disclosure-nonce high-water marks, and the
// evidence ledger — under dir, a directory of write-ahead-log segments
// and snapshots (state in dir/state, evidence in dir/ledger). On reopen
// the participant recovers the latest snapshot, replays the WAL behind
// it, and resumes the sealed window sequence, so a restart never reuses
// a window number it already published (which peers would convict as
// equivocation); the ledger is replayed and re-verified, so convictions
// survive too. A legacy single-file (v1) ledger found at dir/ledger is
// migrated into the WAL once and kept aside as dir/ledger.v1.
//
// WithStore and WithStoreBackend are exclusive.
func WithStore(dir string) Option {
	return func(c *participantConfig) error {
		if dir == "" {
			return errConfigf("option", "store directory must be non-empty")
		}
		c.storeDir = dir
		return nil
	}
}

// WithStoreBackend is WithStore on an arbitrary backend — a MemStore
// for deterministic simulations, a StoreFault for crash testing — in
// place of a directory.
func WithStoreBackend(b StoreBackend) Option {
	return func(c *participantConfig) error {
		if b == nil {
			return errConfigf("option", "StoreBackend must be non-nil")
		}
		c.storeBackend = b
		return nil
	}
}

// WithStoreFault interposes f between the durable store and its backend
// (directory or WithStoreBackend): armed faults — torn writes, fsync
// failures, kills at a byte offset — hit the participant's real write
// path. After a simulated crash, reopening the participant on the same
// store rebinds the injector, which models the process restart.
// Requires WithStore or WithStoreBackend.
func WithStoreFault(f *StoreFault) Option {
	return func(c *participantConfig) error {
		if f == nil {
			return errConfigf("option", "StoreFault must be non-nil")
		}
		c.storeFault = f
		return nil
	}
}
