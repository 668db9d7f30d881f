package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// buildRandom builds a deterministic random graph with the Builder, with
// explicit weights when weighted is set.
func buildRandom(t *testing.T, n int, p float64, weighted bool, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	if weighted {
		for v := 0; v < n; v++ {
			b.SetWeight(v, 1+rng.Int63n(1000))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encodeBinary(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixCRC rewrites the trailer so a deliberately mutated blob passes the
// checksum and exercises the structural validation instead.
func fixCRC(data []byte) {
	sum := crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
}

// rawBinary assembles an unweighted blob with a valid checksum straight
// from neighbor lists — the only way to forge an asymmetric adjacency,
// which no Builder produces.
func rawBinary(lists [][]int32) []byte {
	var offs, adj []byte
	e := 0
	for _, l := range lists {
		e += len(l)
		offs = binary.LittleEndian.AppendUint32(offs, uint32(e))
		for _, u := range l {
			adj = binary.LittleEndian.AppendUint32(adj, uint32(u))
		}
	}
	data := []byte(binaryMagic)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(lists)))
	data = binary.LittleEndian.AppendUint64(data, uint64(e))
	data = append(data, 0) // weight form: all weights 1
	data = append(data, offs...)
	data = append(data, adj...)
	data = append(data, 0, 0, 0, 0) // checksum, filled in by fixCRC
	fixCRC(data)
	return data
}

func TestBinaryRoundTrip(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":      NewBuilder(0).MustBuild(),
		"singleton":  NewBuilder(1).MustBuild(),
		"edgeless":   NewBuilder(5).MustBuild(),
		"path":       NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustBuild(),
		"unweighted": buildRandom(t, 200, 0.05, false, 1),
		"weighted":   buildRandom(t, 200, 0.05, true, 2),
	}
	for name, g := range graphs {
		got := decodeCanonical(t, name, encodeBinary(t, g))
		if !reflect.DeepEqual(g, got) {
			t.Fatalf("%s: round trip diverges\nwant %+v\n got %+v", name, g, got)
		}
	}
}

// decodeCanonical decodes a blob the decoder must accept and checks that
// the graph re-encodes to exactly the same bytes: every accepted blob is
// its graph's one encoding, so it hashes to the graph's one ID.
func decodeCanonical(t *testing.T, name string, data []byte) *Graph {
	t.Helper()
	g, err := DecodeBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if again := AppendBinary(nil, g); !bytes.Equal(data, again) {
		t.Fatalf("%s: accepted %d-byte blob re-encodes to %d different bytes", name, len(data), len(again))
	}
	return g
}

// TestID pins the content address of an unweighted and a weighted graph.
// The literals are sha256 over the ARBCSR01 bytes, so they also pin the
// encoder's byte layout; a change to either moves every graph's ID and
// needs a new snapshot index version in the server.
func TestID(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"unweighted path", NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustBuild(),
			"sha256:aa3f5e01a72d944ecddc7308ad81565fef10ee3c9add38ddb01a11a9ee3d92be"},
		{"weighted triangle", NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).SetWeight(1, 7).MustBuild(),
			"sha256:50b618dd680fe23655c44c710b7b2a2a8ed21f10778d3b13891b3b22e57ff32a"},
	} {
		got := ID(c.g)
		if got != c.want {
			t.Errorf("%s: ID = %s, want %s", c.name, got, c.want)
		}
		sum := sha256.Sum256(encodeBinary(t, c.g))
		if want := "sha256:" + hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: ID = %s, sha256 of EncodeBinary = %s", c.name, got, want)
		}
	}
}

// TestBinaryMatchesTextCodec: the binary round trip must reconstruct the
// same graph the text codec does — same transcript substrate either way.
func TestBinaryMatchesTextCodec(t *testing.T) {
	g := buildRandom(t, 150, 0.04, true, 3)
	var text, bin bytes.Buffer
	if err := Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := Decode(&text)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText, fromBin) {
		t.Fatal("text and binary codecs reconstruct different graphs")
	}
}

func TestBinaryTruncation(t *testing.T) {
	data := encodeBinary(t, buildRandom(t, 60, 0.1, true, 4))
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(data))
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	orig := encodeBinary(t, buildRandom(t, 60, 0.1, true, 5))
	for pos := 0; pos < len(orig)-4; pos += 11 {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x40
		if _, err := DecodeBinary(bytes.NewReader(data)); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
	}
}

// TestBinaryForgery: blobs with a valid checksum but broken structure must
// be rejected by the structural validation.
func TestBinaryForgery(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 3).MustBuild()
	base := encodeBinary(t, g)
	adjStart := binaryHeader + 4*g.N() // first adj entry (node 0's list: 1, 3)

	mutate := func(name string, f func(data []byte)) {
		data := append([]byte(nil), base...)
		f(data)
		fixCRC(data)
		if _, err := DecodeBinary(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: forged blob decoded successfully", name)
		}
	}
	mutate("asymmetric edge", func(data []byte) {
		// Node 0's first neighbor 1 → 2, but node 2's list has no 0.
		binary.LittleEndian.PutUint32(data[adjStart:], 2)
	})
	mutate("self-loop", func(data []byte) {
		binary.LittleEndian.PutUint32(data[adjStart:], 0)
	})
	mutate("unsorted list", func(data []byte) {
		// Node 0's list (1, 3) → (3, 1).
		binary.LittleEndian.PutUint32(data[adjStart:], 3)
		binary.LittleEndian.PutUint32(data[adjStart+4:], 1)
	})
	mutate("out-of-range neighbor", func(data []byte) {
		binary.LittleEndian.PutUint32(data[adjStart:], 99)
	})
	mutate("non-monotone offsets", func(data []byte) {
		binary.LittleEndian.PutUint32(data[binaryHeader:], 7) // offsets[1] > e
	})
	mutate("bad magic", func(data []byte) {
		data[0] = 'X'
	})

	// One-sided asymmetry: every slot but one has its mirror, so only the
	// symmetry check for that side of the edge can catch it.
	decodeCanonical(t, "symmetric raw blob", rawBinary([][]int32{{1}, {0, 2}, {1}}))
	for name, lists := range map[string][][]int32{
		"mirror missing on the lower side": {{1}, {0}, {0}},   // 2→0, but no 0→2
		"mirror missing on the upper side": {{1, 2}, {0}, {}}, // 0→2, but no 2→0
		"unmatched lower slot mid-list":    {{1}, {0, 2}, {0, 1}},
	} {
		if _, err := DecodeBinary(bytes.NewReader(rawBinary(lists))); err == nil {
			t.Fatalf("%s: forged blob decoded successfully", name)
		}
	}

	// Zero weight with a valid checksum (weighted encoding required).
	wg := NewBuilder(2).AddEdge(0, 1).SetWeight(0, 5).MustBuild()
	wdata := encodeBinary(t, wg)
	wpos := len(wdata) - 4 - 16 // two int64 weights before the trailer
	binary.LittleEndian.PutUint64(wdata[wpos:], 0)
	fixCRC(wdata)
	if _, err := DecodeBinary(bytes.NewReader(wdata)); err == nil {
		t.Fatal("zero weight decoded successfully")
	}

	// Explicit weights that are all 1 pass every structural check, but
	// form 0 is that graph's one encoding: accepting this 57-byte blob
	// would give the graph a second ID (it re-encodes to 41 bytes).
	binary.LittleEndian.PutUint64(wdata[wpos:], 1)
	fixCRC(wdata)
	if _, err := DecodeBinary(bytes.NewReader(wdata)); err == nil {
		t.Fatal("weight form 1 with every weight 1 decoded successfully")
	}
}

// FuzzDecodeBinary: DecodeBinary never panics, and every blob it accepts
// is its graph's one encoding, so the graph's ID is the blob's hash: the
// ID DecodeBinaryID returns is ID of the decoded graph.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(bytes.NewReader(data))
		gi, id, errID := DecodeBinaryID(data)
		if (err == nil) != (errID == nil) {
			t.Fatalf("DecodeBinary error %v, DecodeBinaryID error %v", err, errID)
		}
		if err != nil {
			return
		}
		if again := AppendBinary(nil, g); !bytes.Equal(data, again) {
			t.Fatalf("accepted %d-byte blob re-encodes to %d different bytes", len(data), len(again))
		}
		if want := ID(gi); id != want {
			t.Fatalf("DecodeBinaryID = %s, ID of its graph = %s", id, want)
		}
	})
}
