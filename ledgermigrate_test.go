package pvr

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pvr/internal/auditnet"
	"pvr/internal/gossip"
	"pvr/internal/netx"
)

// TestStoreMigratesLegacyLedgerFile: a v1 single-file evidence ledger
// sitting where the store's ledger WAL lives (an old -ledger file moved
// to <store>/ledger) is migrated at Open — the participant starts with
// its conviction in force — and kept aside as ledger.v1, so the next
// Open replays the evidence from the WAL alone, once.
func TestStoreMigratesLegacyLedgerFile(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	const liar, accuser = ASN(64666), ASN(64501)
	liarKey, err := GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(liar, liarKey.Public())
	const topic = "seal/64666/1.1/0"
	sign := func(payload string) gossip.Statement {
		sig, err := liarKey.Sign([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		return gossip.Statement{Origin: liar, Topic: topic, Payload: []byte(payload), Sig: sig}
	}
	conflict := &gossip.Conflict{Origin: liar, Topic: topic, A: sign("root-A"), B: sign("root-B")}

	// The v1 image, written by hand because the format is frozen: netx
	// frames, a magic record, then one conflict record (u32 accuser |
	// encoded conflict).
	var v1 bytes.Buffer
	for _, fr := range []netx.Frame{
		{Type: 0x01, Payload: []byte("pvr/auditnet-ledger/v1")},
		{Type: 0x02, Payload: append(netx.AppendU32(nil, uint32(accuser)), auditnet.EncodeConflict(conflict)...)},
	} {
		if err := netx.WriteFrame(&v1, fr); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger")
	if err := os.WriteFile(ledgerPath, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	key, err := GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() {
		t.Helper()
		p, err := Open(ctx, WithASN(accuser), WithSigner(key), WithRegistry(reg),
			WithStore(dir), WithHoldTime(0), WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if !p.Auditor().Convicted(liar) {
			t.Fatalf("%s not convicted after Open over the store", liar)
		}
		if info, err := os.Stat(ledgerPath); err != nil || !info.IsDir() {
			t.Fatalf("%s is not the ledger WAL directory: %v", ledgerPath, err)
		}
		kept, err := os.ReadFile(ledgerPath + ".v1")
		if err != nil || !bytes.Equal(kept, v1.Bytes()) {
			t.Fatalf("v1 ledger not kept aside unchanged as ledger.v1: %v", err)
		}
	}
	reopen() // migrates
	reopen() // replays the WAL; the v1 file is no longer at the ledger path

	// The WAL holds the evidence exactly once: the second Open did not
	// migrate the file again.
	led, recs, err := auditnet.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if len(recs) != 1 || recs[0].Accuser != accuser || recs[0].Conflict.Origin != liar {
		t.Fatalf("ledger WAL after two Opens holds %d records (%+v), want the one migrated conviction", len(recs), recs)
	}
}
