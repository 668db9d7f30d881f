package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
)

// The binary codec serializes a graph's CSR structure directly, so a
// decoded graph costs array fills instead of text parsing and a Builder
// pass — the difference between milliseconds and seconds on million-node
// corpora. The format is little-endian throughout:
//
//	offset  size  field
//	0       8     magic "ARBCSR01"
//	8       4     n  (uint32, node count)
//	12      8     e  (uint64, directed slot count = len(adj) = 2m)
//	20      1     weight form: 0 = all weights 1, 1 = explicit weights
//	              (form 1 only when some weight is not 1)
//	21      4n    offsets[1..n] (int32; offsets[0] = 0 is implicit)
//	·       4e    adj (int32, concatenated sorted neighbor lists)
//	·       8n    weights (int64; present only when form = 1)
//	end-4   4     CRC-32C (Castagnoli) of every preceding byte
//
// Decode re-validates everything a Builder would have enforced — sorted
// strictly-ascending neighbor lists, in-range IDs, no self-loops,
// symmetric adjacency, weights in [1, MaxWeight] — and recomputes the
// maximum degree rather than trusting the blob, so a corrupted or
// hand-forged snapshot can fail the checksum or the structural checks but
// can never produce an inconsistent Graph. It also rejects the one
// non-canonical layout the checks above would pass, form 1 with every
// weight 1, so whatever decodes re-encodes to the same bytes.

const (
	binaryMagic  = "ARBCSR01"
	binaryHeader = 8 + 4 + 8 + 1 // magic + n + e + weight form
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendBinary appends g's ARBCSR01 encoding to dst and returns the
// extended slice. It is the one canonical byte form of a graph: ID hashes
// it, and the disk snapshots and the binary wire carry it.
func AppendBinary(dst []byte, g *Graph) []byte {
	size := binaryHeader + 4*g.N() + 4*len(g.adj) + 4
	if !g.Unweighted() {
		size += 8 * g.N()
	}
	e := binaryEncoder{buf: slices.Grow(dst, size), done: len(dst)}
	e.encode(g)
	return e.buf
}

// binaryChunk is how many bytes of an encoding binaryEncoder appends
// between two checksum updates; ID hashes and drops each chunk, so it
// bounds what hashing a graph allocates.
const binaryChunk = 16 << 10

// binaryEncoder is the one ARBCSR01 encoder, feeding both of its uses:
// with h nil it keeps the whole encoding in buf (AppendBinary), and with
// h set it hashes each chunk and reuses buf (ID; a hash.Hash Write never
// returns an error). The CRC-32C trailer is computed over the same chunks.
type binaryEncoder struct {
	buf  []byte
	done int // buf[done:] is not yet checksummed
	crc  uint32
	h    hash.Hash
}

func (e *binaryEncoder) encode(g *Graph) {
	form := byte(0)
	if !g.Unweighted() {
		form = 1
	}
	e.buf = append(e.buf, binaryMagic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(g.N()))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(len(g.adj)))
	e.buf = append(e.buf, form)
	e.int32s(g.offsets[1:])
	e.int32s(g.adj)
	if form == 1 {
		e.int64s(g.weights)
	}
	e.flush()
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.crc)
	if e.h != nil {
		_, _ = e.h.Write(e.buf)
	}
}

// int32s appends vs as little-endian uint32s, a chunk at a time.
func (e *binaryEncoder) int32s(vs []int32) {
	for len(vs) > 0 {
		k := min(len(vs), binaryChunk/4)
		buf := e.buf // a local, so the loop keeps the slice in registers
		for _, v := range vs[:k] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		e.buf, vs = buf, vs[k:]
		e.flush()
	}
}

// int64s appends vs as little-endian uint64s, a chunk at a time.
func (e *binaryEncoder) int64s(vs []int64) {
	for len(vs) > 0 {
		k := min(len(vs), binaryChunk/8)
		buf := e.buf // a local, so the loop keeps the slice in registers
		for _, v := range vs[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		e.buf, vs = buf, vs[k:]
		e.flush()
	}
}

// flush checksums the bytes appended since the last flush and, when
// hashing, hashes them and empties buf.
func (e *binaryEncoder) flush() {
	e.crc = crc32.Update(e.crc, castagnoli, e.buf[e.done:])
	if e.h == nil {
		e.done = len(e.buf)
		return
	}
	_, _ = e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

// MaxBinaryNodes returns the most nodes an ARBCSR01 blob of at most size
// bytes can describe: an edgeless unit-weight graph, 4 bytes a node past
// the header and the checksum.
func MaxBinaryNodes(size int64) int {
	return int(max(0, size-binaryHeader-4) / 4)
}

// EncodeBinary writes g to w in the arbods binary CSR format.
func EncodeBinary(w io.Writer, g *Graph) error {
	_, err := w.Write(AppendBinary(nil, g))
	return err
}

// ID returns g's content address: "sha256:" followed by the hex SHA-256
// of its ARBCSR01 encoding. Neighbor lists are sorted and the weight form
// is fixed by the weights, so every graph has exactly one encoding, and
// the same labelled graph shares an ID however it arrived. The encoding
// is hashed chunk by chunk as it is produced, never held whole.
func ID(g *Graph) string {
	e := binaryEncoder{buf: make([]byte, 0, binaryHeader+binaryChunk), h: sha256.New()}
	e.encode(g)
	return "sha256:" + hex.EncodeToString(e.h.Sum(nil))
}

// blobID is the content address of an ARBCSR01 blob.
func blobID(blob []byte) string {
	sum := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// DecodeBinary reads a graph in the arbods binary CSR format, verifying
// the checksum and every structural invariant before constructing the
// Graph. Any truncation, corruption, or forged structure yields an error,
// never a malformed graph.
func DecodeBinary(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: binary read: %w", err)
	}
	return decodeBinary(data)
}

// DecodeBinaryID decodes the ARBCSR01 blob in data as DecodeBinary does,
// reading data in place, and returns the graph with its ID. An accepted
// blob is its graph's one encoding, so the ID is the hash of data itself
// and equals ID(g) without encoding g again.
func DecodeBinaryID(data []byte) (*Graph, string, error) {
	g, err := decodeBinary(data)
	if err != nil {
		return nil, "", err
	}
	return g, blobID(data), nil
}

func decodeBinary(data []byte) (*Graph, error) {
	if len(data) < binaryHeader+4 {
		return nil, fmt.Errorf("graph: binary blob truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %q", data[:8])
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	e64 := binary.LittleEndian.Uint64(data[12:20])
	form := data[20]
	if form > 1 {
		return nil, fmt.Errorf("graph: unknown weight form %d", form)
	}
	if e64 > uint64(1)<<31-1 {
		return nil, fmt.Errorf("graph: slot count %d overflows int32 offsets", e64)
	}
	e := int(e64)
	want := binaryHeader + 4*n + 4*e + 4
	if form == 1 {
		want += 8 * n
	}
	if len(data) != want {
		return nil, fmt.Errorf("graph: binary blob is %d bytes, header implies %d", len(data), want)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], castagnoli); got != sum {
		return nil, fmt.Errorf("graph: binary checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	pos := binaryHeader
	offsets := make([]int32, n+1)
	prev := int32(0)
	for v := 1; v <= n; v++ {
		o := int32(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if o < prev || int(o) > e {
			return nil, fmt.Errorf("graph: offsets not monotone at node %d (%d after %d)", v, o, prev)
		}
		offsets[v] = o
		prev = o
	}
	if int(offsets[n]) != e {
		return nil, fmt.Errorf("graph: final offset %d != slot count %d", offsets[n], e)
	}

	adj := make([]int32, e)
	maxDeg := 0
	for v := 0; v < n; v++ {
		last := int32(-1)
		lo, hi := offsets[v], offsets[v+1]
		if d := int(hi - lo); d > maxDeg {
			maxDeg = d
		}
		for i := lo; i < hi; i++ {
			u := int32(binary.LittleEndian.Uint32(data[pos : pos+4]))
			pos += 4
			switch {
			case u < 0 || int(u) >= n:
				return nil, fmt.Errorf("graph: node %d: neighbor %d out of range [0,%d)", v, u, n)
			case int(u) == v:
				return nil, fmt.Errorf("graph: self-loop at node %d", v)
			case u <= last:
				return nil, fmt.Errorf("graph: node %d: neighbor list not strictly ascending (%d after %d)", v, u, last)
			}
			adj[i] = u
			last = u
		}
	}

	// Symmetry: every directed slot (v → u) must have a mirror slot
	// (u → v). Walking v upward reaches each node u's down-slots (u → w,
	// w < u) in exactly their sorted order, so one cursor per node
	// suffices: each up-slot (v → u, u > v) must be mirrored by u's next
	// unmatched down-slot, and at the end every cursor must have consumed
	// all of its node's down-slots, stopping at the first up-slot.
	cur := make([]int32, n)
	copy(cur, offsets[:n])
	for v := 0; v < n; v++ {
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if int(u) < v {
				continue // a down-slot: its cursor checks it
			}
			c := cur[u]
			if c == offsets[u+1] || adj[c] != int32(v) {
				return nil, fmt.Errorf("graph: edge (%d,%d) has no mirror — adjacency not symmetric", v, u)
			}
			cur[u] = c + 1
		}
	}
	for u, c := range cur {
		if c < offsets[u+1] && int(adj[c]) < u {
			return nil, fmt.Errorf("graph: edge (%d,%d) has no mirror — adjacency not symmetric", u, adj[c])
		}
	}

	weights := make([]int64, n)
	if form == 1 {
		unit := true
		for v := 0; v < n; v++ {
			wt := int64(binary.LittleEndian.Uint64(data[pos : pos+8]))
			pos += 8
			if wt < 1 || wt > MaxWeight {
				return nil, fmt.Errorf("graph: weight %d for node %d outside [1,%d]", wt, v, MaxWeight)
			}
			weights[v] = wt
			unit = unit && wt == 1
		}
		if unit {
			// Form 0 is the one encoding of a unit-weight graph; accepting
			// form 1 here would give that graph a second ID.
			return nil, fmt.Errorf("graph: weight form 1 with every weight 1 (canonical form is 0)")
		}
	} else {
		for v := range weights {
			weights[v] = 1
		}
	}

	return &Graph{offsets: offsets, adj: adj, weights: weights, maxDeg: maxDeg}, nil
}
