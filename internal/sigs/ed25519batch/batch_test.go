package ed25519batch

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"pvr/internal/ristretto"
)

// point adapts ristretto.Point to the Edwards encoding Ed25519 keys use.
type point struct{ ristretto.Point }

func (p *point) bytes() [32]byte { return p.EdwardsBytes() }

var basePt = point{*ristretto.NewGeneratorPoint()}

// scalarMult sets out = [k mod l]p.
func scalarMult(out, p *point, k *big.Int) *point {
	var s ristretto.Scalar
	out.VarTimeScalarMult(s.SetBigInt(k), &p.Point)
	return out
}

// --- point arithmetic ---

func TestBasePointRoundTrip(t *testing.T) {
	enc := basePt.bytes()
	// RFC 8032: B encodes as 0x58666666…66 (y = 4/5, x positive).
	if enc[31] != 0x66 || enc[0] != 0x58 {
		t.Fatalf("unexpected base point encoding %x", enc)
	}
	var p point
	if _, err := p.SetEdwardsBytes(enc[:]); err != nil {
		t.Fatal("failed to decompress base point")
	}
	if got := p.bytes(); got != enc {
		t.Fatalf("round trip mismatch: %x vs %x", got, enc)
	}
}

func TestAddDoubleConsistency(t *testing.T) {
	// 2B via scalarMult == B+B; [5]B matches an add chain.
	var d, s point
	scalarMult(&d, &basePt, big.NewInt(2))
	s.Add(&basePt.Point, &basePt.Point)
	if d.bytes() != s.bytes() {
		t.Fatal("[2]B != B+B")
	}
	var p5a, p5b, t4 point
	t4.Add(&d.Point, &d.Point)        // 4B
	p5a.Add(&t4.Point, &basePt.Point) // 5B
	scalarMult(&p5b, &basePt, big.NewInt(5))
	if p5a.bytes() != p5b.bytes() {
		t.Fatal("[5]B mismatch between add chain and scalarMult")
	}
	// [l-1]B + B is the Edwards identity, encoded as y = 1.
	var pl point
	scalarMult(&pl, &basePt, new(big.Int).Sub(order, big.NewInt(1)))
	pl.Add(&pl.Point, &basePt.Point)
	if got := pl.bytes(); got != [32]byte{1} {
		t.Fatalf("[l]B != identity: %x", got)
	}
}

func TestScalarMultMatchesStdlibKeys(t *testing.T) {
	// ed25519 public key = [a]B with a the clamped SHA512 half of the
	// seed; generate stdlib keys and reproduce the public point.
	for i := 0; i < 8; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute A from the seed the way RFC 8032 does.
		seed := priv.Seed()
		a := clampedScalar(seed)
		var p point
		scalarMult(&p, &basePt, a)
		if got := p.bytes(); string(got[:]) != string(pub) {
			t.Fatalf("scalarMult does not reproduce stdlib public key")
		}
	}
}

func clampedScalar(seed []byte) *big.Int {
	h := sha512Sum(seed)
	var k [32]byte
	copy(k[:], h[:32])
	k[0] &= 248
	k[31] &= 127
	k[31] |= 64
	return scalarFromLE(k[:])
}

func sha512Sum(b []byte) [64]byte { return sha512.Sum512(b) }

// --- batch verification ---

func makeBatch(t testing.TB, n int, keys int) ([]Item, []ed25519.PublicKey) {
	t.Helper()
	pubs := make([]ed25519.PublicKey, keys)
	privs := make([]ed25519.PrivateKey, keys)
	parsed := make([]*PublicKey, keys)
	for i := range pubs {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i], privs[i] = pub, priv
		pk, err := ParsePublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = pk
	}
	items := make([]Item, n)
	for i := range items {
		k := i % keys
		msg := []byte(fmt.Sprintf("announcement %d over prefix 10.%d.0.0/16", i, i%250))
		items[i] = Item{Key: parsed[k], Msg: msg, Sig: ed25519.Sign(privs[k], msg)}
	}
	return items, pubs
}

func TestVerifyBatchValid(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 300} {
		items, _ := makeBatch(t, n, 3)
		ok, bad := Verify(items)
		if !ok || bad != -1 {
			t.Fatalf("valid batch of %d rejected (bad=%d)", n, bad)
		}
	}
}

func TestVerifyBatchDetectsTampering(t *testing.T) {
	corrupt := []func(it *Item){
		func(it *Item) { it.Msg = append(append([]byte{}, it.Msg...), 'x') },
		func(it *Item) { it.Sig[10] ^= 1 }, // R tweak
		func(it *Item) { it.Sig[40] ^= 1 }, // s tweak
	}
	for ci, mod := range corrupt {
		items, _ := makeBatch(t, 50, 3)
		it := items[17]
		it.Sig = append([]byte{}, it.Sig...)
		mod(&it)
		items[17] = it
		ok, _ := Verify(items)
		if ok {
			t.Fatalf("corruption %d: batch accepted a bad signature", ci)
		}
	}
}

func TestVerifyBatchStructuralFailures(t *testing.T) {
	items, _ := makeBatch(t, 10, 2)
	// Non-canonical s: s + l still satisfies the equation but must be
	// rejected, exactly as crypto/ed25519 does.
	bad := append([]byte{}, items[4].Sig...)
	s := scalarFromLE(bad[32:])
	s.Add(s, order)
	sb := s.Bytes() // big-endian
	for i := range bad[32:] {
		bad[32+i] = 0
	}
	for i, v := range sb {
		bad[32+len(sb)-1-i] = v
	}
	items[4].Sig = bad
	ok, idx := Verify(items)
	if ok || idx != 4 {
		t.Fatalf("non-canonical s not flagged: ok=%v idx=%d", ok, idx)
	}

	items2, _ := makeBatch(t, 5, 1)
	items2[2].Sig = items2[2].Sig[:40]
	ok, idx = Verify(items2)
	if ok || idx != 2 {
		t.Fatalf("short sig not flagged: ok=%v idx=%d", ok, idx)
	}
}

func TestVerifyBatchAgreesWithStdlibRandomized(t *testing.T) {
	// Randomized cross-check: flip coins on corrupting each item and
	// confirm batch-level accept/reject matches "all items stdlib-valid".
	rng := mrand.New(mrand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		items, pubs := makeBatch(t, 30, 3)
		anyBad := false
		for i := range items {
			if rng.Intn(10) == 0 {
				items[i].Sig = append([]byte{}, items[i].Sig...)
				items[i].Sig[0] ^= 0x40
				anyBad = true
			}
		}
		allStdlibOK := true
		for i := range items {
			if !ed25519.Verify(pubs[i%3], items[i].Msg, items[i].Sig) {
				allStdlibOK = false
			}
		}
		ok, idx := Verify(items)
		accepted := ok && idx == -1
		if accepted != allStdlibOK {
			t.Fatalf("trial %d: batch accept=%v stdlib=%v anyBad=%v", trial, accepted, allStdlibOK, anyBad)
		}
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	if _, err := ParsePublicKey(make([]byte, 31)); err == nil {
		t.Fatal("short key accepted")
	}
	// A y coordinate whose x² has no square root: search from a fixed
	// pattern.
	bad := make([]byte, 32)
	for i := range bad {
		bad[i] = 0xA5
	}
	found := false
	for i := 0; i < 64; i++ {
		bad[0] = byte(i)
		if _, err := ParsePublicKey(bad); err != nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no invalid point found in sweep (decompression too permissive?)")
	}
}

// --- benchmarks ---

func BenchmarkStdlibVerify(b *testing.B) {
	items, pubs := makeBatch(b, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ed25519.Verify(pubs[0], items[0].Msg, items[0].Sig) {
			b.Fatal("bad sig")
		}
	}
}

func benchBatch(b *testing.B, n int) {
	items, _ := makeBatch(b, n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _ := Verify(items)
		if !ok {
			b.Fatal("batch rejected")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
}

func BenchmarkBatchVerify64(b *testing.B)   { benchBatch(b, 64) }
func BenchmarkBatchVerify256(b *testing.B)  { benchBatch(b, 256) }
func BenchmarkBatchVerify1024(b *testing.B) { benchBatch(b, 1024) }
func BenchmarkBatchVerify3072(b *testing.B) { benchBatch(b, 3072) }
