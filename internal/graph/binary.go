package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// can never produce an inconsistent Graph.

const (
	binaryMagic  = "ARBCSR01"
	binaryHeader = 8 + 4 + 8 + 1 // magic + n + e + weight form
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeBinary writes g to w in the arbods binary CSR format.
func EncodeBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	h := crc32.New(castagnoli)
	mw := io.MultiWriter(bw, h)

	n := g.N()
	var hdr [binaryHeader]byte
	copy(hdr[:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(g.adj)))
	if !g.Unweighted() {
		hdr[20] = 1
	}
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}

	var buf [8]byte
	for v := 1; v <= n; v++ {
		binary.LittleEndian.PutUint32(buf[:4], uint32(g.offsets[v]))
		if _, err := mw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, u := range g.adj {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		if _, err := mw.Write(buf[:4]); err != nil {
			return err
		}
	}
	if hdr[20] == 1 {
		for _, wt := range g.weights {
			binary.LittleEndian.PutUint64(buf[:], uint64(wt))
			if _, err := mw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], h.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeBinary reads a graph in the arbods binary CSR format, verifying
// the checksum and every structural invariant before constructing the
// Graph. Any truncation, corruption, or forged structure yields an error,
// never a malformed graph.
func DecodeBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: binary read: %w", err)
	}
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
		for v := 0; v < n; v++ {
			wt := int64(binary.LittleEndian.Uint64(data[pos : pos+8]))
			pos += 8
			if wt < 1 || wt > MaxWeight {
				return nil, fmt.Errorf("graph: weight %d for node %d outside [1,%d]", wt, v, MaxWeight)
			}
			weights[v] = wt
		}
	} else {
		for v := range weights {
			weights[v] = 1
		}
	}

	return &Graph{offsets: offsets, adj: adj, weights: weights, maxDeg: maxDeg}, nil
}
