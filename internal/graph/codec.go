package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text codec serializes graphs in a line-oriented format that is easy to
// diff and to feed to external tools:
//
//	arbods-graph v1
//	n <nodes> m <edges>
//	w <id> <weight>        (one line per node with weight != 1)
//	e <u> <v>              (one line per undirected edge, u < v)
//
// Lines beginning with '#' and blank lines are ignored when decoding.
// Fields are separated by runs of whitespace, a line (its newline aside)
// must stay under 16 MiB, and the size line may declare at most
// math.MaxInt32 nodes.

const codecHeader = "arbods-graph v1"

// Encode writes g to w in the arbods text format.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\nn %d m %d\n", codecHeader, g.N(), g.M()); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if g.Weight(v) != 1 {
			if _, err := fmt.Fprintf(bw, "w %d %d\n", v, g.Weight(v)); err != nil {
				return err
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Decode reads a graph in the arbods text format.
func Decode(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return DecodeText(data, math.MaxInt32)
}

// DecodeText decodes a graph in the arbods text format from data. A size
// line that declares more than maxNodes nodes, or more than
// math.MaxInt32 (node IDs are int32), is an error before anything is
// allocated for them: the line costs a few bytes, the nodes it declares
// tens of bytes each.
func DecodeText(data []byte, maxNodes int) (*Graph, error) {
	sc := textScanner{data: data}
	if !sc.next() {
		return nil, fmt.Errorf("graph: empty input")
	}
	if string(sc.text) != codecHeader {
		return nil, fmt.Errorf("graph: line %d: unexpected header %q", sc.line, sc.text)
	}
	if !sc.next() {
		return nil, fmt.Errorf("graph: missing size line")
	}
	var n, m int
	if _, err := fmt.Sscanf(string(sc.text), "n %d m %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: line %d: bad size line %q: %w", sc.line, sc.text, err)
	}
	if limit := min(maxNodes, math.MaxInt32); n > limit {
		return nil, fmt.Errorf("graph: line %d: %d nodes exceed the limit of %d", sc.line, n, limit)
	}
	b := NewBuilder(n)
	// Every edge line but the last takes at least 6 bytes ("e 0 1\n"), so
	// the rest of the body bounds the edge list whatever m claims.
	b.edges = make([][2]int32, 0, max(0, min(m, (len(data)-sc.pos+1)/6)))
	edges := 0
	for sc.next() {
		switch {
		case sc.ntok == 3 && string(sc.tok[0]) == "w":
			v, ok1 := parseInt(sc.tok[1])
			w, ok2 := parseInt(sc.tok[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: bad weight line %q", sc.line, sc.text)
			}
			b.SetWeight(int(v), w)
		case sc.ntok == 3 && string(sc.tok[0]) == "e":
			u, ok1 := parseInt(sc.tok[1])
			v, ok2 := parseInt(sc.tok[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", sc.line, sc.text)
			}
			b.AddEdge(int(u), int(v))
			edges++
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", sc.line, sc.text)
		}
	}
	if sc.tooLong {
		return nil, fmt.Errorf("graph: read: %w", bufio.ErrTooLong)
	}
	if edges != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, edges)
	}
	return b.Build()
}

// maxLine bounds a text line: one of maxLine bytes or more before its
// newline (a trailing '\r' included) ends the decode with
// bufio.ErrTooLong.
const maxLine = 1 << 24

// textScanner walks the lines of a text body in place. next skips blank
// and comment lines, and leaves the next line's number, its text with
// the surrounding spaces trimmed, its first three fields and its field
// count. Fields split at the spaces of strings.Fields: the ASCII
// "\t\v\f\r " on an ASCII line, any Unicode space on a line that holds a
// byte >= 0x80.
type textScanner struct {
	data    []byte
	pos     int // start of the next line
	line    int
	tooLong bool
	text    []byte
	tok     [3][]byte
	ntok    int
}

// Byte classes of an ASCII line, and utf8Byte for any byte of a
// multi-byte UTF-8 sequence.
const (
	fieldByte = iota
	spaceByte
	utf8Byte
)

var byteClass = func() (c [256]byte) {
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = utf8Byte
	}
	for _, b := range []byte("\t\v\f\r ") {
		c[b] = spaceByte
	}
	return c
}()

func (sc *textScanner) next() bool {
	for sc.pos < len(sc.data) {
		rest := sc.data[sc.pos:]
		end := bytes.IndexByte(rest, '\n')
		if end < 0 {
			end = len(rest)
		}
		if end >= maxLine {
			sc.tooLong = true
			return false
		}
		sc.pos += end + 1
		sc.line++
		if sc.split(rest[:end]) {
			return true
		}
	}
	return false
}

// split tokenizes one line and reports whether it holds a record rather
// than nothing or a comment.
func (sc *textScanner) split(line []byte) bool {
	var tok [3][]byte
	ntok, first, last := 0, 0, 0
	for i := 0; i < len(line); {
		switch byteClass[line[i]] {
		case spaceByte:
			i++
			continue
		case utf8Byte:
			return sc.splitUnicode(line)
		}
		if ntok == 0 {
			if line[i] == '#' {
				return false
			}
			first = i
		}
		j := i + 1
		for j < len(line) && byteClass[line[j]] == fieldByte {
			j++
		}
		if j < len(line) && byteClass[line[j]] == utf8Byte {
			return sc.splitUnicode(line)
		}
		if ntok < len(tok) {
			tok[ntok] = line[i:j]
		}
		ntok++
		last, i = j, j
	}
	sc.tok, sc.ntok, sc.text = tok, ntok, line[first:last]
	return ntok > 0
}

// splitUnicode is split for a line that holds a byte >= 0x80, where
// strings.TrimSpace and strings.Fields decide what a space is.
func (sc *textScanner) splitUnicode(line []byte) bool {
	s := strings.TrimSpace(string(line))
	if s == "" || s[0] == '#' {
		return false
	}
	fields := strings.Fields(s)
	sc.ntok = len(fields)
	for i := range min(len(fields), len(sc.tok)) {
		sc.tok[i] = []byte(fields[i])
	}
	sc.text = []byte(s)
	return true
}

// parseInt parses a number as strconv.ParseInt(string(b), 10, 64) does,
// without the string when b is at most 18 plain digits.
func parseInt(b []byte) (int64, bool) {
	var x int64
	digits := len(b) > 0 && len(b) <= 18
	for i := 0; digits && i < len(b); i++ {
		d := b[i] - '0'
		digits = d <= 9
		x = x*10 + int64(d)
	}
	if digits {
		return x, true
	}
	x, err := strconv.ParseInt(string(b), 10, 64)
	return x, err == nil
}

// readAll returns what is left to read in r. A *bytes.Reader,
// *bytes.Buffer or *strings.Reader knows that length, so it is copied
// once into a slice of exactly that size; any other reader goes through
// io.ReadAll.
func readAll(r io.Reader) ([]byte, error) {
	switch r.(type) {
	case *bytes.Reader, *bytes.Buffer, *strings.Reader:
		data := make([]byte, r.(interface{ Len() int }).Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}
