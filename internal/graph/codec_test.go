package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is the line-at-a-time text decoder Decode must agree
// with: a bufio.Scanner with a 16 MiB line buffer, strings.TrimSpace and
// strings.Fields on every line, and strconv for every number. FuzzDecode
// holds the two to the same accept/reject answer and the same graph.
func referenceDecode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}
	header, ok := next()
	if !ok {
		return nil, fmt.Errorf("graph: empty input")
	}
	if header != codecHeader {
		return nil, fmt.Errorf("graph: line %d: unexpected header %q", line, header)
	}
	sizes, ok := next()
	if !ok {
		return nil, fmt.Errorf("graph: missing size line")
	}
	var n, m int
	if _, err := fmt.Sscanf(sizes, "n %d m %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: line %d: bad size line %q: %w", line, sizes, err)
	}
	b := NewBuilder(n)
	edges := 0
	for {
		s, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(s)
		switch {
		case fields[0] == "w" && len(fields) == 3:
			v, err1 := strconv.Atoi(fields[1])
			w, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight line %q", line, s)
			}
			b.SetWeight(v, w)
		case fields[0] == "e" && len(fields) == 3:
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", line, s)
			}
			b.AddEdge(u, v)
			edges++
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if edges != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, edges)
	}
	return b.Build()
}

// declaredNodes returns the node count on the size line of a text body,
// found the way referenceDecode finds that line, or 0 without one.
func declaredNodes(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for records := 0; sc.Scan(); {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if records++; records == 2 {
			var n, m int
			fmt.Sscanf(s, "n %d m %d", &n, &m)
			return n
		}
	}
	return 0
}

// FuzzDecode holds Decode to referenceDecode: the same error on every
// input it rejects, and on every input it accepts the same graph, down
// to the ARBCSR01 bytes. Whatever Decode accepts must also keep its ID
// through Encode and Decode. Inputs whose size line declares more than
// 1<<16 nodes are skipped, so neither decoder can take the fuzzer's
// memory.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredNodes(data) > 1<<16 {
			t.Skip("size line declares more than 1<<16 nodes")
		}
		want, wantErr := referenceDecode(bytes.NewReader(data))
		got, err := Decode(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Decode error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(AppendBinary(nil, got), AppendBinary(nil, want)) {
			t.Fatalf("Decode built %v, the reference %v", got, want)
		}
		var text bytes.Buffer
		if err := Encode(&text, got); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&text)
		if err != nil {
			t.Fatalf("decode of Encode output: %v", err)
		}
		if ID(again) != ID(got) {
			t.Fatalf("Encode and Decode moved the ID from %s to %s", ID(got), ID(again))
		}
	})
}

// TestDecodeLineCap pins the longest line the text decoders read: up to
// maxLine-1 bytes before the newline, a trailing '\r' counted, whether
// or not the line ends the input.
func TestDecodeLineCap(t *testing.T) {
	const prefix = "arbods-graph v1\nn 2 m 1\ne 0 1\n"
	for _, c := range []struct {
		name, line string
		ok         bool
	}{
		{"maxLine-1", "#" + strings.Repeat("x", maxLine-2), true},
		{"maxLine", "#" + strings.Repeat("x", maxLine-1), false},
		{"maxLine with its CR", "#" + strings.Repeat("x", maxLine-2) + "\r", false},
	} {
		for _, end := range []string{"\n", ""} {
			data := prefix + c.line + end
			for name, decode := range map[string]func(io.Reader) (*Graph, error){
				"Decode": Decode, "reference": referenceDecode,
			} {
				_, err := decode(strings.NewReader(data))
				if c.ok && err != nil {
					t.Errorf("%s, %s, newline %q: %v", name, c.name, end, err)
				}
				if !c.ok && !errors.Is(err, bufio.ErrTooLong) {
					t.Errorf("%s, %s, newline %q: error %v, want %v", name, c.name, end, err, bufio.ErrTooLong)
				}
			}
		}
	}
}

// TestDecodeNodeLimit: a size line above the node limit is refused
// before its nodes are allocated, naming the limit: above math.MaxInt32
// for Decode, above maxNodes for DecodeText.
func TestDecodeNodeLimit(t *testing.T) {
	for _, n := range []int{math.MaxInt32 + 1, 3_000_000_000} {
		_, err := Decode(strings.NewReader(fmt.Sprintf("arbods-graph v1\nn %d m 0\n", n)))
		if err == nil || !strings.Contains(err.Error(), "limit of 2147483647") {
			t.Errorf("n=%d: error %v, want the limit of %d", n, err, math.MaxInt32)
		}
	}
	body := []byte("arbods-graph v1\nn 5 m 0\n")
	if _, err := DecodeText(body, 4); err == nil || !strings.Contains(err.Error(), "limit of 4") {
		t.Errorf("5 nodes, limit 4: error %v", err)
	}
	if g, err := DecodeText(body, 5); err != nil || g.N() != 5 {
		t.Errorf("5 nodes, limit 5: %v, %v", g, err)
	}
}
