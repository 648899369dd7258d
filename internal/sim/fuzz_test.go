package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lbica/internal/ckpt"
)

// fuzzRNG is the stream FuzzRNGState restores onto: the fuzzed bytes
// follow its (valid) name and seed, so the input reaches the index and
// register checks instead of stopping at the identity cross-check.
func fuzzRNG() *RNG { return NewRNG(1, "fuzz") }

// fuzzHeader encodes g's identity the way EncodeState opens.
func fuzzHeader(g *RNG) []byte {
	enc := ckpt.NewEncoder()
	enc.String(g.name)
	enc.I64(g.seed)
	return enc.Data()
}

// FuzzRNGState hardens RNG.DecodeState: any body after a valid header
// either fails the decode or yields a stream that re-encodes to the bytes
// it consumed and, restored again, draws identically.
func FuzzRNGState(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzRNG()
		in := append(fuzzHeader(g), data...)
		d := ckpt.NewDecoder(in)
		g.DecodeState(d)
		if d.Err() != nil {
			return
		}
		out := encodeRNG(g)
		if consumed := in[:len(in)-d.Remaining()]; !bytes.Equal(out, consumed) {
			t.Fatalf("re-encode differs from the %d bytes decoded", len(consumed))
		}
		back := fuzzRNG()
		if err := decodeRNG(back, out); err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v", err)
		}
		for i := 0; i < 2000; i++ {
			if a, b := mixedDraw(g.r, i), mixedDraw(back.r, i); a != b {
				t.Fatalf("round-tripped stream diverges at draw %d", i)
			}
		}
	})
}

// TestGenRNGCorpus regenerates the committed FuzzRNGState seed corpus
// (testdata/fuzz). Rerun with GEN_CORPUS=1 after any change to the RNG
// wire format.
func TestGenRNGCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate")
	}
	g := fuzzRNG()
	for i := 0; i < 12345; i++ {
		g.Float64()
	}
	body := encodeRNG(g)[len(fuzzHeader(g)):]
	badLag := bytes.Clone(body)
	badLag[8]++ // feed's low byte: breaks feed−tap ≡ lfLag
	badTap := bytes.Clone(body)
	badTap[7] = 0x80 // tap's high byte: negative
	zero := bytes.Clone(body)
	for i := 16; i < len(zero); i++ {
		zero[i] = 0
	}
	seeds := [][]byte{
		body,
		body[:len(body)/2],
		badLag,
		badTap,
		zero,
		append(bytes.Clone(body), "trailing"...),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRNGState")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed%02d", i))
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
